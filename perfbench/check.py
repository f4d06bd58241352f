"""Output check: compare one sweep's outputs with the recorded reference.

The reference of each workload (``reference/<workload>/``) holds the
``sweep.csv``, ``hconv.csv`` and ``meyers.csv`` of one sweep and, in
``summary.json``, the rate slope and the uniqueness verdict.  Values must
agree within round-off.  The tolerances below sit between two measured
effects (see NOTES.md): switching the LU ordering to MMD_AT_PLUS_A, which
must pass, and loosening a solver tolerance, which must not.

An operation is one sweep row or one uniqueness-probe restart trial.  It
fails when its status is not ``converged`` or when its outputs deviate.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# (rtol, atol) for each numeric column; columns not listed must be equal
TOLERANCES = {
    "sweep.csv": {
        "h": (1e-12, 0.0),
        "margin": (2e-10, 0.0),
        "ubar_err_linf": (3e-7, 0.0),
        "ueps_err_linf": (3e-7, 0.0),
        # ratio of the last two step norms; the last step is near round-off
        "max_contraction": (1e-4, 1e-7),
    },
    "hconv.csv": {
        "h": (1e-12, 0.0),
        "pairing_max": (1e-7, 0.0),
        # zero in 1D up to round-off, which grows with the mesh size
        "flux_pairing_max": (1e-7, 1e-8),
        "linf_diff": (1e-7, 0.0),
        "grad_l2_diff": (1e-7, 0.0),
    },
    "meyers.csv": {"grad_lp": (1e-7, 0.0)},
}
SLOPE_RTOL = 4e-8
TABLES = tuple(TOLERANCES)

# A solve that stalls at the round-off floor ends as max-iter or diverged
# depending on the last bits of its residual history (the eps = 1/2048 ladder
# rung does so under a different LU ordering), so those two endings of the
# same solver are the same outcome.
_STALL = re.compile(r"(max-iter|diverged)$")


def _same_status(a: str, b: str) -> bool:
    return _STALL.sub("stalled", a) == _STALL.sub("stalled", b)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, want: str, tol) -> bool:
    if tol is None:
        return got == want
    x, y = float(got), float(want)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    rtol, atol = tol
    return abs(x - y) <= rtol * abs(y) + atol


def _row_deviations(table: str, got: dict, want: dict,
                    columns=None) -> list[str]:
    tols = TOLERANCES[table]
    return [f"{table} eps={want['eps']} {col}: {got.get(col)} != {want[col]}"
            for col in (columns or want)
            if got.get(col) is None or not _close(got[col], want[col],
                                                  tols.get(col))]


@dataclass
class CheckResult:
    """Per-operation verdicts of one sweep against its reference."""

    row_failed: list = field(default_factory=list)
    trial_failed: list = field(default_factory=list)
    deviations: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.row_failed) + len(self.trial_failed)

    @property
    def failed(self) -> int:
        return sum(self.row_failed) + sum(self.trial_failed)


def read_outputs(out_dir: Path) -> dict:
    """The checked outputs of one sweep, in the reference's layout."""
    summary = json.loads((out_dir / "summary.json").read_text())
    uniqueness = summary.get("uniqueness", {})
    return {
        **{t: _read_csv(out_dir / t) for t in TABLES},
        "summary": {"rate_slope": summary.get("rate", {}).get("slope"),
                    "all_same": uniqueness.get("all_same"),
                    "statuses": uniqueness.get("statuses", [])},
    }


def read_reference(ref_dir: Path) -> dict:
    return {**{t: _read_csv(ref_dir / t) for t in TABLES},
            "summary": json.loads((ref_dir / "summary.json").read_text())}


def compare(got: dict, want: dict) -> CheckResult:
    """Compare outputs ``got`` (``read_outputs``) with reference ``want``
    (``read_reference``; its summary has the trial count, not statuses)."""
    result = CheckResult()
    sweep, ref_sweep = got["sweep.csv"], want["sweep.csv"]
    if len(sweep) != len(ref_sweep):
        result.deviations.append(
            f"sweep.csv has {len(sweep)} rows, reference {len(ref_sweep)}")
        result.row_failed = [True] * len(ref_sweep)
        result.trial_failed = [True] * want["summary"]["trials"]
        return result

    slope = got["summary"]["rate_slope"]
    ref_slope = want["summary"]["rate_slope"]
    slope_ok = (slope == ref_slope if slope is None or ref_slope is None
                else abs(slope - ref_slope) <= SLOPE_RTOL * abs(ref_slope))
    if not slope_ok:
        result.deviations.append(f"rate slope {slope} != {ref_slope}")

    for row, ref in zip(sweep, ref_sweep):
        if ref["status"] == "converged":
            dev = _row_deviations("sweep.csv", row, ref)
        else:
            # the values of a failed row are NaN or partial; its outcome is
            # where it stopped
            dev = _row_deviations("sweep.csv", row, ref,
                                  ("eps", "h", "n_cells"))
            if not _same_status(row["status"], ref["status"]):
                dev.append(f"sweep.csv eps={ref['eps']} status: "
                           f"{row['status']} != {ref['status']}")
        for table in ("hconv.csv", "meyers.csv"):
            rows = [r for r in got[table] if r["eps"] == ref["eps"]]
            refs = [r for r in want[table] if r["eps"] == ref["eps"]]
            if len(rows) != len(refs):
                dev.append(f"{table} eps={ref['eps']}: {len(rows)} rows, "
                           f"reference {len(refs)}")
            for r, w in zip(rows, refs):
                dev += _row_deviations(table, r, w)
        # the rate is fitted over the converged rows
        fitted = ref["status"] == "converged"
        result.deviations += dev
        result.row_failed.append(row["status"] != "converged" or bool(dev)
                                 or (fitted and not slope_ok))

    statuses = got["summary"]["statuses"]
    same = got["summary"]["all_same"] == want["summary"]["all_same"]
    if not same:
        # the outputs do not say which trial disagreed, so all of them count
        result.deviations.append(
            f"uniqueness all_same {got['summary']['all_same']} != "
            f"{want['summary']['all_same']}")
    ref_trials = want["summary"]["trials"]
    if len(statuses) != ref_trials:
        result.deviations.append(
            f"{len(statuses)} probe trials, reference {ref_trials}")
    # a trial that did not run counts as failed
    result.trial_failed = [k >= len(statuses) or statuses[k] != "converged"
                           or not same
                           for k in range(max(len(statuses), ref_trials))]
    return result
