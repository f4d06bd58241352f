"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs one sweep of each workload with seed 0 and writes
``perfbench/reference/<workload>/``: ``sweep.csv``, ``hconv.csv``,
``meyers.csv`` as the program wrote them, and ``summary.json`` with the rate
slope, the uniqueness verdict and the number of probe trials.  Recording
again replaces the reference, so do it only for a commit whose outputs are
known to be right.
"""

import json
import shutil
import sys

import check
from run import HERE, WORK, WORKLOADS, run_worker, write_config


def record(name: str) -> None:
    work = WORK / "reference" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config, out = work / "config.yaml", work / "out"
    write_config(name, 0, config)
    with open(work / "worker.log", "w") as log:
        run_worker(["sweep", config, out], log)
    ref = HERE / "reference" / name
    ref.mkdir(parents=True, exist_ok=True)
    for table in check.TABLES:
        shutil.copyfile(out / table, ref / table)
    summary = check.read_outputs(out)["summary"]
    (ref / "summary.json").write_text(json.dumps({
        "rate_slope": summary["rate_slope"],
        "all_same": summary["all_same"],
        "trials": len(summary["statuses"]),
    }, indent=2) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
