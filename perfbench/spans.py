"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the public functions of the traced homfem modules at
every place a homfem module binds them (``cli`` does
``from .solver import fixed_point_solve``, so patching ``homfem.solver``
alone would miss the sweep's own calls).  Each call becomes one span with a
name, start, end and parent span id, kept in memory; a few spans also carry
counts read from their arguments or result.  ``layer_metrics`` turns a span
list into the ``<module>.<function>.<stat>`` metrics.

The module imports neither NumPy nor homfem, so the set-up timing of a
fresh interpreter is not charged for it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "cell", "solver", "fem", "nonlin", "norms", "coeff",
                  "mesh")
# methods traced besides the module-level functions:
# span name -> (module, class, method)
TRACED_METHODS = {"fem.FemSpace": ("fem", "FemSpace", "__init__"),
                  "coeff.TensorField.evaluate": ("coeff", "TensorField",
                                                 "evaluate")}


def _matrix_digest(matrix) -> str:
    """Digest of a sparse matrix's stored arrays: equal digests mean a
    bit-identical matrix in the same storage format."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{matrix.format}{matrix.shape}".encode())
    for arr in (matrix.indptr, matrix.indices, matrix.data):
        h.update(memoryview(arr))
    return h.hexdigest()


# counts attached to a span: name -> f(args, kwargs, result) -> dict
def _lu_counts(args, kwargs, lu):
    matrix = getattr(args[0], "matrix", args[0])  # SparseOperator or matrix
    # SuperLU.nnz is the fill of L + U; reading lu.L / lu.U would copy them
    return {"fill": int(lu.nnz), "nnz": int(matrix.nnz),
            "digest": _matrix_digest(matrix)}


def _assembly_counts(args, kwargs, op):
    return {"digest": _matrix_digest(op.matrix)}


def _iteration_counts(args, kwargs, result):
    return {"iters": int(result[1].iterations)}


def _probe_counts(args, kwargs, report):
    return {"trials": len(report.statuses),
            "trials_failed": sum(s != "converged" for s in report.statuses)}


def _space_counts(args, kwargs, result):
    return {"free_dofs": int(args[0].num_free)}


COUNTERS = {
    "fem.lu_factor": _lu_counts,
    "fem.assemble_diffusion": _assembly_counts,
    "fem.FemSpace": _space_counts,
    "solver.solve_homogenized": _iteration_counts,
    "solver.fixed_point_solve": _iteration_counts,
    "solver.local_uniqueness_probe": _probe_counts,
}


class Recorder:
    """Records one span per traced call while installed (``with Recorder()``).

    Spans are dicts with keys ``id``, ``name``, ``parent``, ``start`` and
    ``end`` (``time.perf_counter`` seconds), plus the counts of ``COUNTERS``.
    The counts are taken after ``end`` is read, so they do not inflate the
    span itself, only its ancestors; ``trace.overhead_s`` covers that cost.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Recorder":
        import homfem.cli  # noqa: F401  (loads every homfem module)

        # id(original) -> (original, wrapper); holding the original keeps
        # its id from being reused
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"homfem.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapper = self.wrap(f"{short}.{attr}", obj)
                    wrappers[id(obj)] = (obj, wrapper)
        homfem_modules = [m for name, m in sys.modules.items()
                          if name == "homfem" or name.startswith("homfem.")]
        for module in homfem_modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)][1])
        for name, (short, cls_name, method) in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"homfem.{short}"], cls_name)
            self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# metrics from spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sweep: name -> (value, unit)."""
    by_name = defaultdict(list)
    for s in sorted(spans, key=lambda s: s["start"]):
        by_name[s["name"]].append(s)
    own = self_times(spans)

    def calls(name):
        return (len(by_name[name]), "count")

    def secs(*names):
        return (sum(s["end"] - s["start"] for n in names for s in by_name[n]),
                "s")

    def self_s(name):
        return (sum(own[s["id"]] for s in by_name[name]), "s")

    # a call that raised carries no counts
    def total(name, key):
        return (sum(s.get(key, 0) for s in by_name[name]), "count")

    def largest(name, key):
        return (max((s.get(key, 0) for s in by_name[name]), default=0),
                "count")

    def repeat(name):
        seen, repeats = set(), 0
        for s in by_name[name]:
            if "digest" in s:
                repeats += s["digest"] in seen
                seen.add(s["digest"])
        return (repeats, "count")

    lu_calls = calls("fem.lu_factor")[0]
    lu_repeat = repeat("fem.lu_factor")[0]
    return {
        "fem.lu_factor.calls": calls("fem.lu_factor"),
        "fem.lu_factor.s": secs("fem.lu_factor"),
        "fem.lu_factor.fill": total("fem.lu_factor", "fill"),
        "fem.lu_factor.fill_max": largest("fem.lu_factor", "fill"),
        "fem.lu_factor.repeat": (lu_repeat, "count"),
        "fem.lu_factor.unique_frac": (1.0 - lu_repeat / lu_calls
                                      if lu_calls else 1.0, "ratio"),
        "fem.assemble_diffusion.calls": calls("fem.assemble_diffusion"),
        "fem.assemble_diffusion.s": secs("fem.assemble_diffusion"),
        "fem.assemble_diffusion.repeat": repeat("fem.assemble_diffusion"),
        "fem.assemble_jacobian_coupling.calls":
            calls("fem.assemble_jacobian_coupling"),
        "fem.assemble_jacobian_coupling.s":
            secs("fem.assemble_jacobian_coupling"),
        "fem.assemble_divergence_load.calls":
            calls("fem.assemble_divergence_load"),
        "fem.assemble_divergence_load.s": secs("fem.assemble_divergence_load"),
        "fem.solve_linear.calls": calls("fem.solve_linear"),
        "fem.solve_linear.s": secs("fem.solve_linear"),
        "fem.FemSpace.calls": calls("fem.FemSpace"),
        "fem.FemSpace.s": secs("fem.FemSpace"),
        "fem.free_dofs_max": largest("fem.FemSpace", "free_dofs"),
        "fem.matrix_nnz_max": largest("fem.lu_factor", "nnz"),
        "solver.solve_homogenized.calls": calls("solver.solve_homogenized"),
        "solver.solve_homogenized.s": secs("solver.solve_homogenized"),
        "solver.solve_homogenized.iters":
            total("solver.solve_homogenized", "iters"),
        "solver.nondegeneracy_margin.calls":
            calls("solver.nondegeneracy_margin"),
        "solver.nondegeneracy_margin.s": secs("solver.nondegeneracy_margin"),
        "solver.approximate_solution.calls":
            calls("solver.approximate_solution"),
        "solver.approximate_solution.s": secs("solver.approximate_solution"),
        "solver.fixed_point_solve.calls": calls("solver.fixed_point_solve"),
        "solver.fixed_point_solve.s": secs("solver.fixed_point_solve"),
        "solver.fixed_point_solve.self_s": self_s("solver.fixed_point_solve"),
        "solver.fixed_point_solve.iters":
            total("solver.fixed_point_solve", "iters"),
        "solver.local_uniqueness_probe.s":
            secs("solver.local_uniqueness_probe"),
        "solver.local_uniqueness_probe.self_s":
            self_s("solver.local_uniqueness_probe"),
        "solver.local_uniqueness_probe.trials":
            total("solver.local_uniqueness_probe", "trials"),
        "solver.local_uniqueness_probe.trials_failed":
            total("solver.local_uniqueness_probe", "trials_failed"),
        "nonlin.eval_F.calls": calls("nonlin.eval_F"),
        "nonlin.eval_F.s": secs("nonlin.eval_F"),
        "nonlin.eval_F_jacobian.calls": calls("nonlin.eval_F_jacobian"),
        "nonlin.eval_F_jacobian.s": secs("nonlin.eval_F_jacobian"),
        "coeff.TensorField.evaluate.calls":
            calls("coeff.TensorField.evaluate"),
        "coeff.TensorField.evaluate.s": secs("coeff.TensorField.evaluate"),
        "norms.h_convergence_probe.s": secs("norms.h_convergence_probe"),
        "norms.h_convergence_probe.self_s":
            self_s("norms.h_convergence_probe"),
        "norms.meyers_probe.s": secs("norms.meyers_probe"),
        "norms.meyers_probe.self_s": self_s("norms.meyers_probe"),
        "norms.w1p_norm.calls": calls("norms.w1p_norm"),
        "norms.w1p_norm.s": secs("norms.w1p_norm"),
        "cell.solve_cell_problems.s": secs("cell.solve_cell_problems"),
        "cell.homogenized_tensor.s": secs("cell.homogenized_tensor"),
        "cli.compute_effective_tensor.s": secs("cli.compute_effective_tensor"),
        "cli.load_config.s": secs("cli.load_config"),
        "mesh.build.s": secs("mesh.build_interval_mesh",
                             "mesh.build_unit_square_mesh",
                             "mesh.build_periodic_cell_mesh"),
    }
