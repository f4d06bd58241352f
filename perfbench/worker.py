"""One measured process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py setup CONFIG
        time ``import homfem.cli`` plus ``load_config`` in this fresh
        interpreter; prints {"setup_s": ...}
    python3 perfbench/worker.py sweep CONFIG OUT [SPANS]
        run one ``run_sweep`` into OUT; prints {"sweep_s": ...,
        "peak_rss_mb": ...}.  With SPANS, the sweep (and the config load) is
        traced and the spans are written to that JSON file.

homfem must be importable (``PYTHONPATH=src``).  Only the standard library
is imported before the timed region.
"""

import json
import resource
import sys
import time


def setup(config: str) -> dict:
    start = time.perf_counter()
    import homfem.cli
    homfem.cli.load_config(config)
    return {"setup_s": time.perf_counter() - start}


def _sweep(cli, config: str, out: str) -> float:
    cfg = cli.load_config(config)
    start = time.perf_counter()
    cli.run_sweep(cfg, out)  # returns after summary.json is written
    return time.perf_counter() - start


def sweep(config: str, out: str, spans_path: str | None = None) -> dict:
    import homfem.cli as cli
    if spans_path is None:
        sweep_s = _sweep(cli, config, out)
    else:
        from spans import Recorder
        with Recorder() as recorder:
            sweep_s = _sweep(cli, config, out)
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"sweep_s": sweep_s, "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    print(json.dumps({"setup": setup, "sweep": sweep}[mode](*args)))
