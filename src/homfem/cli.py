"""Declarative experiment driver.

Problem configs are YAML documents with a fixed key set (unknown keys are
rejected by name); runs are reproducible functions of the config and the
seed.  Subcommands:

* ``homogenize``: solve the cell problems and export the effective tensor.
* ``solve``: run the pipeline at a single oscillation period.
* ``sweep``: the full pipeline over the configured period list, with CSV
  output, a rate-fit summary, and the linear convergence probes.
* ``probe``: the linear probes alone (weak convergence and gradient
  integrability, from one linear solve per probe mesh).

Every CSV column is documented in the JSON schema files shipped under
``homfem/schemas``; consumers should read CSVs through those schemas.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import importlib.resources
import json
import logging
import sys
import warnings
from dataclasses import dataclass, field as dc_field, asdict
from pathlib import Path

import numpy as np
import yaml

from .cell import homogenized_tensor, homogenized_tensor_1d, solve_cell_problems
from .coeff import HomogenizedTensor, TensorField, add_defect
from .fem import DiscreteField, FemSpace, assemble_diffusion
from .mesh import build_interval_mesh, build_periodic_cell_mesh, build_unit_square_mesh
from .nonlin import (Constant, ExpLinear, ExpressionFactor, Nonlinearity,
                     Polynomial, Rational, Sinusoid, TableFactor, Term,
                     validate)
from .norms import (fit_rate, h_convergence_probe, linf_norm, meyers_probe,
                    sinusoid_test_functions)
from .solver import (SolverConfig, approximate_solution, fixed_point_solve,
                     local_uniqueness_probe, nondegeneracy_margin,
                     oscillatory_operator, solve_homogenized)

__all__ = ["ProblemConfig", "parse_config", "load_config", "run_sweep",
           "load_schema", "main"]

log = logging.getLogger("homfem")


class ConfigError(ValueError):
    """Raised for malformed or contradictory problem configs."""


# --------------------------------------------------------------------------
# config schema


_TOP_KEYS = {"domain", "system_dim", "tensor", "defect", "nonlinearity",
             "eps", "mesh", "solver", "quadrature", "probe", "seed", "output"}
_TENSOR_KEYS = {"kind", "value", "values", "grid", "entries", "triangular"}
_MESH_KEYS = {"cells_per_eps", "cell_resolution"}
_SOLVER_KEYS = {"newton_tol", "newton_max_iter", "fp_tol", "fp_max_iter",
                "delta", "mesh_ratio"}
_NONLIN_KEYS = {"p0", "terms"}
_TERM_KEYS = {"target", "g", "h", "p0"}
_PROBE_KEYS = {"modes", "p_grid", "trials", "cells_per_eps"}
_H_KEYS = {"kind", "value", "coeffs", "shift", "monomials",
           "numerator", "denominator"}


def _check_keys(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got "
                          f"{type(section).__name__}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where}")


@dataclass
class ProblemConfig:
    """A fully validated experiment description with defaults filled in."""

    domain: str = "interval"
    system_dim: int = 1
    tensor: dict = dc_field(default_factory=lambda: {"kind": "constant",
                                                     "value": 1.0})
    defect: dict | None = None
    nonlinearity: dict = dc_field(default_factory=lambda: {"p0": 4.0,
                                                           "terms": []})
    eps: list = dc_field(default_factory=lambda: [0.125, 0.0625, 0.03125])
    cells_per_eps: int = 8
    cell_resolution: int = 64
    quadrature: str = "midpoint"
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    probe_modes: int = 4
    probe_p_grid: list = dc_field(default_factory=lambda: [2.0, 2.5, 3.0, 3.5, 4.0])
    probe_trials: int = 10
    probe_cells_per_eps: int = 8
    seed: int = 0
    output: str = "out"
    warnings: list = dc_field(default_factory=list)

    @property
    def dim(self) -> int:
        return 1 if self.domain == "interval" else 2

    def effective_dict(self) -> dict:
        doc = asdict(self)
        doc["solver"] = asdict(self.solver)
        return doc

    # -- builders ---------------------------------------------------------
    # The coefficient family and the flux are built once, by parse_config,
    # which validates them; asdict skips cached properties, so the
    # effective config stays the same.

    @functools.cached_property
    def coefficient(self) -> TensorField:
        base = _build_tensor_field(self.tensor, self.system_dim, self.dim,
                                   "tensor")
        if self.defect is not None:
            dfield = _build_tensor_field(self.defect, self.system_dim,
                                         self.dim, "defect", zero_outside=True)
            # probe scale only used for the margin check; callers rescale
            return add_defect(base, dfield, epsilon=self.eps[0]).with_epsilon(None)
        return base

    @functools.cached_property
    def flux(self) -> Nonlinearity:
        spec = self.nonlinearity
        nl = Nonlinearity(self.system_dim, self.dim, [], p0=float(spec["p0"]))
        for k, term in enumerate(spec.get("terms", [])):
            where = f"nonlinearity.terms[{k}]"
            _check_keys(term, _TERM_KEYS, where)
            alpha, i = (int(v) - 1 for v in term["target"])
            g = _build_spatial_factor(term["g"], self.dim, where)
            h = _build_value_factor(term.get("h", {"kind": "constant"}),
                                    self.system_dim, where)
            nl.terms.append(Term(alpha, i, g, h,
                                 float(term.get("p0", spec["p0"]))))
        return nl

    def build_domain_space(self, eps: float) -> FemSpace:
        cells = max(2, int(round(self.cells_per_eps / eps)))
        mesh = (build_interval_mesh(cells) if self.dim == 1
                else build_unit_square_mesh(cells))
        return FemSpace(mesh, self.system_dim, quadrature=self.quadrature)

    def build_cell_mesh(self):
        return build_periodic_cell_mesh(self.cell_resolution, self.dim)


def _build_tensor_field(spec: dict, n: int, dim: int, where: str,
                        zero_outside: bool = False) -> TensorField:
    _check_keys(spec, _TENSOR_KEYS, where)
    kind = spec.get("kind")
    triangular = spec.get("triangular")
    if kind == "constant":
        return TensorField.constant(n, dim, spec["value"],
                                    triangular=triangular)
    if kind == "piecewise":
        return TensorField.piecewise(n, dim, spec["grid"], spec["values"],
                                     zero_outside=zero_outside,
                                     triangular=triangular)
    if kind == "expression":
        return TensorField.from_expressions(n, dim, spec["entries"],
                                            triangular=triangular)
    raise ConfigError(f"unknown tensor kind {kind!r} in {where}")


def _build_spatial_factor(spec, dim: int, where: str):
    if isinstance(spec, str):
        return ExpressionFactor(spec, dim)
    if isinstance(spec, (int, float)):
        return ExpressionFactor(repr(float(spec)), dim)
    if isinstance(spec, dict) and set(spec) <= {"grid", "values"}:
        return TableFactor(spec["grid"], spec["values"], dim)
    raise ConfigError(f"cannot interpret spatial factor in {where}")


def _build_value_factor(spec: dict, n: int, where: str):
    _check_keys(spec, _H_KEYS, where)
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return Constant(float(spec.get("value", 1.0)), n)
    if kind == "polynomial":
        monomials = [(m["coeff"], m["powers"]) for m in spec["monomials"]]
        return Polynomial(monomials, n)
    if kind in ("sin", "cos"):
        return Sinusoid(kind, spec["coeffs"], float(spec.get("shift", 0.0)), n)
    if kind == "exp":
        return ExpLinear(spec["coeffs"], float(spec.get("shift", 0.0)), n)
    if kind == "rational":
        num = Polynomial([(m["coeff"], m["powers"])
                          for m in spec["numerator"]], n)
        den = Polynomial([(m["coeff"], m["powers"])
                          for m in spec["denominator"]], n)
        return Rational(num, den)
    raise ConfigError(f"unknown value-factor kind {kind!r} in {where}")


def _number(value, key: str, kind=int, low=None):
    """``value`` converted by ``kind`` and, when ``low`` is given, at least
    ``low``; otherwise a ConfigError naming ``key``.

    PyYAML reads a float written without a decimal point, such as ``1e-9``,
    as a string; the conversion accepts it.  An integer key rejects a
    fractional value instead of truncating it.
    """
    try:
        number = kind(value)
        if kind is int and number != float(value):
            raise ValueError("fractional")
    except (TypeError, ValueError, OverflowError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from exc
    if low is not None and not number >= low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    return number


def _floats(values, key: str) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return [_number(v, key, float) for v in values]


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate a YAML problem config; defaults are filled in."""
    doc = yaml.safe_load(text)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _check_keys(doc, _TOP_KEYS, "top level")

    cfg = ProblemConfig()
    cfg.domain = doc.get("domain", cfg.domain)
    if cfg.domain not in ("interval", "unit-square"):
        raise ConfigError(f"unknown domain {cfg.domain!r}")
    cfg.system_dim = _number(doc.get("system_dim", cfg.system_dim),
                             "system_dim", low=1)

    if "tensor" in doc:
        cfg.tensor = doc["tensor"]
    _check_keys(cfg.tensor, _TENSOR_KEYS, "tensor")
    cfg.defect = doc.get("defect")
    if cfg.defect is not None:
        _check_keys(cfg.defect, _TENSOR_KEYS, "defect")

    if "nonlinearity" in doc:
        nl = doc["nonlinearity"]
        _check_keys(nl, _NONLIN_KEYS, "nonlinearity")
        if "p0" not in nl:
            nl = dict(nl, p0=4.0)
        cfg.nonlinearity = nl

    if "eps" in doc:
        cfg.eps = _floats(doc["eps"], "eps")
    if not cfg.eps or not all(0 < e <= 1 for e in cfg.eps):
        raise ConfigError("eps values must lie in (0, 1]")
    if any(b >= a for a, b in zip(cfg.eps, cfg.eps[1:])):
        raise ConfigError("eps values must be strictly decreasing")

    mesh = doc.get("mesh", {})
    _check_keys(mesh, _MESH_KEYS, "mesh")
    cfg.cells_per_eps = _number(mesh.get("cells_per_eps", cfg.cells_per_eps),
                                "mesh.cells_per_eps", low=1)
    cfg.cell_resolution = _number(
        mesh.get("cell_resolution", cfg.cell_resolution),
        "mesh.cell_resolution", low=2)

    solver = doc.get("solver", {})
    _check_keys(solver, _SOLVER_KEYS, "solver")
    solver = {key: value if key == "delta" and value is None
              else _number(value, f"solver.{key}",
                           int if key.endswith("_max_iter") else float)
              for key, value in solver.items()}
    try:
        cfg.solver = SolverConfig(**solver)
    except ValueError as exc:
        raise ConfigError(f"solver.{exc}") from exc

    cfg.quadrature = doc.get("quadrature", cfg.quadrature)
    if cfg.quadrature not in ("midpoint", "3point"):
        raise ConfigError(f"unknown quadrature {cfg.quadrature!r}")

    probe = doc.get("probe", {})
    _check_keys(probe, _PROBE_KEYS, "probe")
    cfg.probe_modes = _number(probe.get("modes", cfg.probe_modes),
                              "probe.modes", low=1)
    cfg.probe_p_grid = _floats(probe.get("p_grid", cfg.probe_p_grid),
                               "probe.p_grid")
    if not cfg.probe_p_grid or not all(2 <= p <= 4 for p in cfg.probe_p_grid):
        raise ConfigError("probe.p_grid must be a non-empty list of exponents "
                          f"in [2, 4], got {cfg.probe_p_grid}")
    cfg.probe_trials = _number(probe.get("trials", cfg.probe_trials),
                               "probe.trials", low=1)
    cfg.probe_cells_per_eps = _number(
        probe.get("cells_per_eps", cfg.probe_cells_per_eps),
        "probe.cells_per_eps", low=1)

    cfg.seed = _number(doc.get("seed", cfg.seed), "seed", low=0)
    cfg.output = str(doc.get("output", cfg.output))

    # eager builds validate entry shapes, expressions and catalog membership
    try:
        base = cfg.coefficient
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid tensor: {exc}") from exc
    try:
        cfg.flux
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid nonlinearity: {exc}") from exc

    # hypothesis dichotomy: two space dimensions, or triangular coefficients
    if cfg.dim != 2 and not base.triangular:
        cfg.warnings.append(
            "neither N=2 nor triangular coefficients: existence/uniqueness "
            "guarantees do not apply; running for exploration only")
    if float(cfg.nonlinearity.get("p0", 4.0)) <= cfg.dim:
        cfg.warnings.append(
            f"nonlinearity exponent p0={cfg.nonlinearity.get('p0')} does not "
            f"exceed the space dimension {cfg.dim}")
    if cfg.cells_per_eps < cfg.solver.mesh_ratio:
        cfg.warnings.append(
            f"cells_per_eps={cfg.cells_per_eps} below the resolution rule "
            f"h <= eps/{cfg.solver.mesh_ratio:g}")
    return cfg


def load_config(path) -> ProblemConfig:
    return parse_config(Path(path).read_text())


# --------------------------------------------------------------------------
# schemas and CSV output


def load_schema(name: str) -> dict:
    """Load a CSV schema (column names, types, descriptions) by table name."""
    ref = importlib.resources.files("homfem") / "schemas" / f"{name}.json"
    return json.loads(ref.read_text())


def _write_csv(path: Path, schema_name: str, rows: list[dict]) -> None:
    schema = load_schema(schema_name)
    names = [c["name"] for c in schema["columns"]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format_value(row[n]) for n in names])


def _format_value(v):
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


# --------------------------------------------------------------------------
# pipeline stages


def compute_effective_tensor(cfg: ProblemConfig):
    """Cell problems on the configured cell mesh; returns (ahat, info).

    Uses the defect-free periodic base: a localized perturbation leaves the
    effective tensor unchanged, so it never enters the cell formula.
    """
    base = cfg.coefficient.without_defect()
    cellmesh = cfg.build_cell_mesh()
    correctors = solve_cell_problems(base, cellmesh)
    ahat = homogenized_tensor(base, correctors, cellmesh)
    info = {
        "cell_resolution": cfg.cell_resolution,
        "corrector_max_abs": correctors.max_abs,
        "corrector_mean_max": float(np.max(np.abs(correctors.means))),
        "margin": ahat.margin,
    }
    if cfg.dim == 1:
        ahat_direct = homogenized_tensor_1d(base)
        info["inverse_average_gap"] = float(
            np.max(np.abs(ahat.values - ahat_direct.values)))
    return ahat, info


def _default_probe_flux(dim: int, n: int):
    def flux(pts):
        out = np.zeros((pts.shape[0], n, dim))
        for i in range(dim):
            out[:, :, i] = pts[:, i:i + 1]
        return out
    return flux


def _row(eps: float, status: str, h: float = np.nan, n_cells: int = 0):
    """A sweep row with nothing measured yet."""
    return {"eps": eps, "h": h, "n_cells": n_cells, "margin": np.nan,
            "ubar_err_linf": np.nan, "ueps_err_linf": np.nan,
            "iterations": 0, "max_contraction": np.nan, "status": status}


def run_single(cfg: ProblemConfig, ahat: HomogenizedTensor, eps: float):
    """One full solve at a single oscillation period.

    Returns ``(row, space, fields)``: the sweep row, the solve space and the
    fields that the solve reached, among ``u0``, ``ubar`` and ``ueps``.
    ``Ahat`` and ``A_eps`` are each assembled once and handed to every stage
    that uses them; the resolution check runs once, as ``A_eps`` is built.
    """
    nl = cfg.flux
    space = cfg.build_domain_space(eps)
    fields = {}
    A_hat = assemble_diffusion(space, ahat.as_tensor_field())
    u0, newton_report = solve_homogenized(space, A_hat, nl, cfg.solver)
    row = _row(eps, "homogenized-" + newton_report.status,
               space.mesh.spacing, space.mesh.num_cells)
    if newton_report.status == "converged":
        fields["u0"] = u0
        margin = nondegeneracy_margin(space, A_hat, nl, u0)
        row["margin"] = margin
        if margin <= 0:
            row["status"] = "degenerate"
        else:
            A_eps = oscillatory_operator(
                space, cfg.coefficient.with_epsilon(eps), cfg.solver)
            ubar = approximate_solution(space, A_eps, nl, u0, cfg.solver)
            fields["ubar"] = ubar
            row["ubar_err_linf"] = linf_norm(ubar - u0)
            u_eps, fp_report = fixed_point_solve(space, A_eps, nl, u0,
                                                 cfg.solver, start=ubar)
            fields["ueps"] = u_eps
            row["ueps_err_linf"] = linf_norm(u_eps - u0)
            row["iterations"] = fp_report.iterations
            factors = fp_report.contraction_factors
            row["max_contraction"] = max(factors) if factors else np.nan
            row["status"] = fp_report.status
    return row, space, fields


def _solution_rows(space: FemSpace, fields: dict) -> list[dict]:
    coords = space.mesh.vertices[space.indep_vertices]
    nodal = {k: f.nodal_matrix() for k, f in fields.items()}
    rows = []
    for slot, v in enumerate(space.indep_vertices):
        for comp in range(space.n):
            rows.append({
                "vertex": int(v), "component": comp,
                "x1": float(coords[slot, 0]),
                "x2": float(coords[slot, 1]) if space.mesh.dim == 2 else np.nan,
                "u0": float(nodal["u0"][slot, comp]) if "u0" in nodal else np.nan,
                "ubar": float(nodal["ubar"][slot, comp]) if "ubar" in nodal else np.nan,
                "ueps": float(nodal["ueps"][slot, comp]) if "ueps" in nodal else np.nan,
            })
    return rows


def _guarded_run(cfg: ProblemConfig, ahat: HomogenizedTensor, eps: float):
    """run_single, but any stage failure lands in the row (with no space and
    no fields) and the sweep continues."""
    try:
        return run_single(cfg, ahat, eps)
    except Exception as exc:  # noqa: BLE001 - recorded, not swallowed silently
        log.warning("solve at eps=%g failed: %s", eps, exc)
        return _row(eps, f"error-{type(exc).__name__}"), None, {}


def _write_probe_tables(cfg: ProblemConfig, ahat: HomogenizedTensor,
                        out: Path) -> float:
    """The linear probes: writes ``hconv.csv`` and ``meyers.csv`` from one
    solve per probe mesh; returns the Meyers observed range."""
    flux = _default_probe_flux(cfg.dim, cfg.system_dim)
    hrows = h_convergence_probe(
        cfg.coefficient, ahat, flux, cfg.eps,
        test_functions=sinusoid_test_functions(cfg.dim, cfg.probe_modes),
        cells_per_eps=cfg.probe_cells_per_eps)
    _write_csv(out / "hconv.csv", "hconv", [{
        "eps": r.eps, "h": r.h, "n_cells": r.n_cells,
        "pairing_max": float(r.pairings.max()),
        "flux_pairing_max": float(r.flux_pairings.max()),
        "linf_diff": r.linf_diff, "grad_l2_diff": r.grad_l2_diff,
    } for r in hrows])
    mtable = meyers_probe(hrows, cfg.probe_p_grid)
    _write_csv(out / "meyers.csv", "meyers", [
        {"eps": e, "p": p, "grad_lp": float(mtable.norms[r, c])}
        for r, e in enumerate(mtable.eps_list)
        for c, p in enumerate(mtable.p_grid)])
    return mtable.observed_range


def run_sweep(cfg: ProblemConfig, out_dir=None) -> dict:
    """The full pipeline over the configured period list.

    Writes ``ahat.json``, ``sweep.csv``, ``hconv.csv``, ``meyers.csv`` and
    ``summary.json`` into the output directory and returns the summary.
    Deterministic for a fixed config and seed; per-period failures are
    recorded in their row and the sweep continues.  The uniqueness probe
    restarts around the last converged row's own ``u0``, ``ubar`` and
    ``ueps``.
    """
    out = Path(out_dir if out_dir is not None else cfg.output)
    with _run_log(cfg, out):
        return _sweep(cfg, out)


def _sweep(cfg: ProblemConfig, out: Path) -> dict:
    log.info("effective config: %s",
             json.dumps(cfg.effective_dict(), sort_keys=True))

    validation = validate(cfg.flux)
    if not validation.passed:
        log.warning("nonlinearity validation failed: %s",
                    validation.reason or "see term reports")

    ahat, cell_info = compute_effective_tensor(cfg)
    (out / "ahat.json").write_text(ahat.to_json())
    log.info("effective tensor computed: %s", json.dumps(cell_info))

    rows, last = [], None
    for eps in cfg.eps:
        row, _, fields = _guarded_run(cfg, ahat, eps)
        rows.append(row)
        if row["status"] == "converged":
            last = (eps, fields["u0"].values, fields["ubar"].values,
                    fields["ueps"].values)
        # the next row runs without this row's mesh alive; the probe
        # rebuilds the space of the last converged row from its eps
        del _, fields
    _write_csv(out / "sweep.csv", "sweep", rows)
    for row in rows:
        log.info("sweep row: %s", json.dumps(row, default=repr))

    summary = {"cell": cell_info, "rows": len(rows)}
    summary["nonlinearity_validation"] = {
        "passed": validation.passed,
        "terms": [{"target": [t.alpha + 1, t.i + 1], "source": t.source,
                   "integral_estimate": t.integral_estimate,
                   "passed": t.passed} for t in validation.terms],
    }
    fit_points = [(r["eps"], r["ueps_err_linf"]) for r in rows
                  if r["status"] == "converged" and r["ueps_err_linf"] > 0]
    if len(fit_points) >= 2:
        slope, intercept = fit_rate(fit_points)
        summary["rate"] = {"slope": slope, "intercept": intercept}

    summary["meyers_observed_range"] = _write_probe_tables(cfg, ahat, out)

    if last is not None:
        eps_star, u0, ubar, u_eps = last
        space = cfg.build_domain_space(eps_star)
        probe = local_uniqueness_probe(
            space, cfg.coefficient.with_epsilon(eps_star), cfg.flux,
            DiscreteField(space, u0), cfg.solver,
            trials=cfg.probe_trials, seed=cfg.seed,
            ubar=DiscreteField(space, ubar), u_eps=DiscreteField(space, u_eps))
        summary["uniqueness"] = {
            "eps": eps_star,
            "all_same": probe.all_same,
            "outside_ball": probe.outside_ball,
            "max_distance": max(probe.distances),
            "statuses": probe.statuses,
        }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=repr))
    log.info("summary: %s", json.dumps(summary, sort_keys=True, default=repr))
    return summary


@contextlib.contextmanager
def _run_log(cfg: ProblemConfig, out: Path):
    """One command's log: ``out/run.log`` and stderr, opening with the
    config's warnings.  Every ``warnings.warn`` inside the block (the
    solver's resolution warnings among them) goes to the same handlers."""
    out.mkdir(parents=True, exist_ok=True)
    handlers = [logging.FileHandler(out / "run.log", mode="w"),
                logging.StreamHandler(sys.stderr)]
    for handler in handlers:
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.setLevel(logging.INFO)
    log.handlers[:] = handlers
    for w in cfg.warnings:
        log.warning(w)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, category, *_: log.warning(
                "%s: %s", category.__name__, message)
            yield
    finally:
        log.handlers.clear()
        handlers[0].close()


# --------------------------------------------------------------------------
# entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="YAML problem config")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homfem",
        description="periodic homogenization toolkit for semilinear "
                    "divergence-form systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("homogenize", "solve", "sweep", "probe"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "solve":
            p.add_argument("--eps", type=float, default=None,
                           help="oscillation period (default: first in config)")
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = _number(args.seed, "--seed", low=0)
    eps = getattr(args, "eps", None)
    if eps is not None and not 0 < eps <= 1:
        raise ConfigError(f"--eps must lie in (0, 1], got {eps}")
    out = Path(args.out if args.out is not None else cfg.output)
    if args.command == "sweep":
        run_sweep(cfg, out)  # opens its own run log
        return 0

    with _run_log(cfg, out):
        ahat, info = compute_effective_tensor(cfg)
        if args.command == "homogenize":
            (out / "ahat.json").write_text(ahat.to_json())
            log.info("wrote %s: %s", out / "ahat.json", json.dumps(info))
        elif args.command == "solve":
            row, space, fields = run_single(
                cfg, ahat, eps if eps is not None else cfg.eps[0])
            (out / "solve.json").write_text(
                json.dumps(row, indent=2, sort_keys=True, default=repr))
            _write_csv(out / "solution.csv", "solution",
                       _solution_rows(space, fields))
            log.info("solve row: %s", json.dumps(row, default=repr))
        elif args.command == "probe":
            _write_probe_tables(cfg, ahat, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
