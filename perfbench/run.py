"""Sweep benchmark of homfem: ``homfem.cli.run_sweep`` on named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]   # every workload

Run from the root of a checkout; homfem is imported from ``src/``.  Each
sweep runs in a fresh process (``worker.py``), so one sweep's memory never
reaches another's ``peak_rss_mb``.  With ``--trace 0`` a run times
``SETUP_SAMPLES`` fresh interpreters, then runs sweeps until ``--seconds``
have passed (at least ``MIN_SWEEPS``) and reports medians.  With
``--trace 1`` it runs the same untraced sweeps, then one traced sweep, and
reports the per-layer metrics.  Every sweep's outputs are checked
against ``reference/<workload>/`` (see check.py).  With ``--workload`` the
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"

# workload -> (shipped config, eps list replacing the config's, or None)
WORKLOADS = {
    # factorization- and probe-bound 2D system, as shipped
    "sweep_2d_coupled": ("configs/coupled_2d.yaml", None),
    # tridiagonal 1D ladder down to eps = 1/2048, where the effective Newton
    # solve stalls today; that rung stays in
    "sweep_1d_ladder": ("configs/two_phase_1d.yaml",
                        [2.0 ** -k for k in range(3, 12)]),
}
SETUP_SAMPLES = 9
MIN_SWEEPS = 3
WORKER_TIMEOUT_S = 120


def write_config(name: str, seed: int, path: Path) -> None:
    """The generated config of a workload: the shipped one with the
    workload's eps list and the benchmark seed as the config's ``seed``."""
    import yaml

    shipped, eps = WORKLOADS[name]
    doc = yaml.safe_load((ROOT / shipped).read_text())
    if eps is not None:
        doc["eps"] = eps
    doc["seed"] = seed
    doc["output"] = str(path.parent / "out")
    path.write_text(yaml.safe_dump(doc, sort_keys=False))


def run_worker(args: list, log) -> dict:
    """Run worker.py to completion in a fresh interpreter; its JSON result.

    BLAS runs one thread, like the sweep itself (``threads=1``): on a
    two-core machine a second BLAS thread mostly measures what else runs.
    """
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        env=env, stdout=subprocess.PIPE, stderr=log, text=True, check=True,
        timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def _checked_sweep(config: Path, out: Path, reference: dict, log,
                   spans_path: Path | None = None):
    result = run_worker(["sweep", config, out]
                        + ([spans_path] if spans_path else []), log)
    verdict = check.compare(check.read_outputs(out), reference)
    shutil.rmtree(out)
    return result, verdict


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; the result object."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.yaml"
    write_config(name, seed, config)
    reference = check.read_reference(HERE / "reference" / name)

    with open(work / "worker.log", "w") as log:
        setups = []
        if not trace:
            # the first interpreter also compiles homfem's bytecode: once
            # per checkout, so not a set-up cost a user pays on every run
            run_worker(["setup", config], log)
            setups = [run_worker(["setup", config], log)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
        sweeps, verdicts = [], []
        start = time.perf_counter()
        while (len(sweeps) < MIN_SWEEPS
               or time.perf_counter() - start < seconds):
            result, verdict = _checked_sweep(
                config, work / f"sweep{len(sweeps)}", reference, log)
            sweeps.append(result)
            verdicts.append(verdict)
        if trace:
            spans_path = work / "spans.json"
            traced, verdict = _checked_sweep(config, work / "traced",
                                             reference, log, spans_path)
            verdicts.append(verdict)

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    deviations = [d for v in verdicts for d in v.deviations]
    sweep_s = statistics.median(r["sweep_s"] for r in sweeps)
    if trace:
        metrics = spans.layer_metrics(json.loads(spans_path.read_text()))
        metrics["trace.overhead_s"] = (traced["sweep_s"] - sweep_s, "s")
        metrics["failed_frac"] = (failed / attempted, "ratio")
    else:
        metrics = {
            "sweep_s": (sweep_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (
                statistics.median(r["peak_rss_mb"] for r in sweeps), "MB"),
        }
    _report(name, seed, metrics, [r["sweep_s"] for r in sweeps], len(setups),
            attempted, failed, deviations)
    return {"correct": not deviations, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _report(name, seed, metrics, sweep_times, n_setups, attempted, failed,
            deviations) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    n_sweeps = len(sweep_times)
    spread = f"min {min(sweep_times):.4g}, max {max(sweep_times):.4g}"
    samples = {"sweep_s": f"median of {n_sweeps} sweeps ({spread})",
               "peak_rss_mb": f"median of {n_sweeps} sweeps",
               "setup_s": f"median of {n_setups} fresh interpreters"}
    print(f"{name} seed={seed}")
    for key, (value, unit) in metrics.items():
        note = samples.get(key, "one traced sweep")
        print(f"  {key:<45} {value:>14.6g} {unit:<6} {note}")
    if "failed_frac" not in metrics:
        print(f"  {'failed_frac':<45} {failed / attempted:>14.6g} ratio  "
              f"{failed} of {attempted} operations (rows and probe trials)")
    print(f"  output check: {len(deviations)} deviations from the reference")
    for d in deviations[:10]:
        print(f"    {d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ["src/homfem/cli.py"]
               + [cfg for cfg, _ in WORKLOADS.values()]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a homfem checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    if args.workload is None:
        results = [run(name, args.seed, args.seconds, bool(args.trace))
                   for name in WORKLOADS]
        return 0 if all(r["correct"] for r in results) else 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
