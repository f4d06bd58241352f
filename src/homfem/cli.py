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
import types
import typing
import warnings
from dataclasses import asdict, dataclass, field as dc_field, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

from .cell import homogenized_tensor_1d, solve_cell_problems
from .coeff import HomogenizedTensor, TensorField, add_defect
from .fem import FemSpace, assemble_diffusion
from .mesh import build_interval_mesh, build_periodic_cell_mesh, build_unit_square_mesh
from .nonlin import (Constant, ExpLinear, ExpressionFactor, Nonlinearity,
                     Polynomial, Rational, Sinusoid, TableFactor, Term,
                     validate)
from .norms import fit_rate, h_convergence_probe, linf_norm, meyers_probe
from .solver import (FrozenOperator, SolverConfig, approximate_solution,
                     fixed_point_solve, local_uniqueness_probe,
                     nondegeneracy_margin, oscillatory_operator,
                     solve_homogenized)

__all__ = ["ProblemConfig", "parse_config", "load_config", "run_sweep",
           "load_schema", "main"]

log = logging.getLogger("homfem")


class ConfigError(ValueError):
    """Raised for malformed or contradictory problem configs."""


# --------------------------------------------------------------------------
# config schema: each section is a dataclass whose fields are its YAML keys


_TENSOR_KEYS = {"kind", "value", "values", "grid", "entries", "triangular"}
_TERM_KEYS = {"target", "g", "h", "p0"}
_H_KEYS = {"kind", "value", "coeffs", "shift", "monomials",
           "numerator", "denominator"}


def _check_keys(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got "
                          f"{type(section).__name__}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where}")


def _at_least(section, **lows) -> None:
    for name, low in lows.items():
        value = getattr(section, name)
        if not value >= low:
            raise ValueError(f"{name} must be at least {low}, got {value}")


@dataclass
class NonlinearityConfig:
    """The spatial factors' exponent and the flux terms (checked by flux)."""

    p0: float = 4.0
    terms: list = dc_field(default_factory=list)


@dataclass
class MeshConfig:
    """Cells per period of the solve meshes, per side of the cell mesh."""

    cells_per_eps: int = 8
    cell_resolution: int = 64

    def __post_init__(self):
        _at_least(self, cells_per_eps=1, cell_resolution=2)


@dataclass
class ProbeConfig:
    """The linear probes, and the restarts of the uniqueness probe."""

    modes: int = 4
    p_grid: list[float] = dc_field(
        default_factory=lambda: [2.0, 2.5, 3.0, 3.5, 4.0])
    trials: int = 10
    cells_per_eps: int = 8

    def __post_init__(self):
        _at_least(self, modes=1, trials=1, cells_per_eps=1)
        if not self.p_grid or not all(2 <= p <= 4 for p in self.p_grid):
            raise ValueError("p_grid must be a non-empty list of exponents "
                             f"in [2, 4], got {self.p_grid}")


@dataclass
class ProblemConfig:
    """A fully validated experiment description with defaults filled in;
    its init fields and its sections' fields are the YAML document's keys."""

    domain: str = "interval"
    system_dim: int = 1
    tensor: dict = dc_field(default_factory=lambda: {"kind": "constant",
                                                     "value": 1.0})
    defect: dict | None = None
    nonlinearity: NonlinearityConfig = dc_field(
        default_factory=NonlinearityConfig)
    eps: list[float] = dc_field(default_factory=lambda: [0.125, 0.0625,
                                                         0.03125])
    mesh: MeshConfig = dc_field(default_factory=MeshConfig)
    quadrature: str = "midpoint"
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    probe: ProbeConfig = dc_field(default_factory=ProbeConfig)
    seed: int = 0
    output: str = "out"
    warnings: list = dc_field(default_factory=list, init=False)

    def __post_init__(self):
        if self.domain not in ("interval", "unit-square"):
            raise ValueError(f"unknown domain {self.domain!r}")
        _at_least(self, system_dim=1, seed=0)
        if not self.eps or not all(0 < e <= 1 for e in self.eps):
            raise ValueError("eps values must lie in (0, 1]")
        if any(b >= a for a, b in zip(self.eps, self.eps[1:])):
            raise ValueError("eps values must be strictly decreasing")
        if self.quadrature not in ("midpoint", "3point"):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")

    @property
    def dim(self) -> int:
        return 1 if self.domain == "interval" else 2

    def effective_dict(self) -> dict:
        return asdict(self)

    # -- builders ---------------------------------------------------------
    # built once, and so validated, by parse_config; asdict skips them

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
        spec, terms = self.nonlinearity, []
        for k, term in enumerate(spec.terms):
            where = f"nonlinearity.terms[{k}]"
            _check_keys(term, _TERM_KEYS, where)
            target = term.get("target")
            if not (isinstance(target, list) and [type(v) for v in target]
                    == [int, int] and 0 < target[0] <= self.system_dim
                    and 0 < target[1] <= self.dim):
                raise ConfigError(f"{where}.target must be an integer pair in "
                                  f"[1, {self.system_dim}] x [1, {self.dim}], "
                                  f"got {target!r}")
            g = _build_spatial_factor(term["g"], self.dim, where)
            h = _build_value_factor(term.get("h", {"kind": "constant"}),
                                    self.system_dim, where)
            p0 = _number(term.get("p0", spec.p0), f"{where}.p0", float)
            terms.append(Term(target[0] - 1, target[1] - 1, g, h, p0))
        return Nonlinearity(self.system_dim, self.dim, terms, p0=spec.p0)

    def build_domain_space(self, eps: float) -> FemSpace:
        cells = max(2, int(round(self.mesh.cells_per_eps / eps)))
        mesh = (build_interval_mesh(cells) if self.dim == 1
                else build_unit_square_mesh(cells))
        return FemSpace(mesh, self.system_dim, quadrature=self.quadrature)

    def build_cell_mesh(self):
        return build_periodic_cell_mesh(self.mesh.cell_resolution, self.dim)


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
    as a string; the conversion accepts it.  Booleans and NaN are rejected,
    and an integer key rejects a fractional value instead of truncating it.
    """
    try:
        number = kind(value)
        if isinstance(value, bool) or number != float(value):
            raise ValueError("boolean, fractional or NaN")
    except (TypeError, ValueError, OverflowError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from exc
    if low is not None and not number >= low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    return number


def _section(cls, doc, name: str = ""):
    """``cls`` built from the YAML mapping ``doc`` of section ``name``: its
    init fields are the allowed keys, and a ValueError from its
    ``__post_init__`` becomes a ConfigError that names the section."""
    _check_keys(doc, {f.name for f in fields(cls) if f.init},
                name or "top level")
    prefix = f"{name}." if name else ""
    hints = typing.get_type_hints(cls)
    values = {key: _convert(hints[key], value, prefix + key)
              for key, value in doc.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _convert(kind, value, key: str):
    """``value`` as the declared field type ``kind``, or a ConfigError
    naming ``key``; a dataclass type is a nested section."""
    if isinstance(kind, types.UnionType):  # ``X | None``
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if is_dataclass(kind):
        return _section(kind, value, key)
    if kind in (int, float):
        return _number(value, key, kind)
    origin = typing.get_origin(kind) or kind
    if not isinstance(value, origin):
        raise ConfigError(f"{key} must be a {origin.__name__}, got {value!r}")
    if kind == list[float]:
        return [_number(v, key, float) for v in value]
    return value


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate a YAML problem config; defaults are filled in."""
    cfg = _section(ProblemConfig, yaml.safe_load(text))

    # eager builds validate entry shapes, expressions and catalog membership
    try:
        base = cfg.coefficient
        cfg.flux
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid tensor or nonlinearity: {exc}") from exc

    # hypothesis dichotomy: two space dimensions, or triangular coefficients
    if cfg.dim != 2 and not base.triangular:
        cfg.warnings.append(
            "neither N=2 nor triangular coefficients: existence/uniqueness "
            "guarantees do not apply; running for exploration only")
    if cfg.nonlinearity.p0 <= cfg.dim:
        cfg.warnings.append(
            f"nonlinearity exponent p0={cfg.nonlinearity.p0} does not "
            f"exceed the space dimension {cfg.dim}")
    if cfg.mesh.cells_per_eps < cfg.solver.mesh_ratio:
        cfg.warnings.append(
            f"cells_per_eps={cfg.mesh.cells_per_eps} below the resolution "
            f"rule h <= eps/{cfg.solver.mesh_ratio:g}")
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
    correctors = solve_cell_problems(base, cfg.build_cell_mesh())
    ahat = correctors.ahat
    info = {
        "cell_resolution": cfg.mesh.cell_resolution,
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

    Returns ``(row, space, fields, frozen)``: the sweep row, the solve
    space, the fields that the solve reached, among ``u0``, ``ubar`` and
    ``ueps``, and the row's FrozenOperator once the fixed point ran (None
    before).  ``Ahat`` and ``A_eps`` are each assembled once and handed to
    every stage that uses them; the resolution check runs once, as
    ``A_eps`` is built.
    """
    nl = cfg.flux
    space = cfg.build_domain_space(eps)
    fields, frozen = {}, None
    A_hat = assemble_diffusion(space, ahat.as_tensor_field())
    u0, newton_report = solve_homogenized(A_hat, nl, cfg.solver)
    row = _row(eps, "homogenized-" + newton_report.status,
               space.mesh.spacing, space.mesh.num_cells)
    if newton_report.status == "converged":
        fields["u0"] = u0
        margin = nondegeneracy_margin(A_hat, nl, u0)
        row["margin"] = margin
        if margin <= 0:
            row["status"] = "degenerate"
        else:
            A_eps = oscillatory_operator(
                space, cfg.coefficient.with_epsilon(eps), cfg.solver)
            ubar = approximate_solution(A_eps, nl, u0)
            fields["ubar"] = ubar
            row["ubar_err_linf"] = linf_norm(ubar - u0)
            frozen = FrozenOperator(A_eps, nl, u0)
            u_eps, fp_report = fixed_point_solve(frozen, ubar, cfg.solver)
            fields["ueps"] = u_eps
            row["ueps_err_linf"] = linf_norm(u_eps - u0)
            row["iterations"] = fp_report.iterations
            factors = fp_report.contraction_factors
            row["max_contraction"] = max(factors) if factors else np.nan
            row["status"] = fp_report.status
    return row, space, fields, frozen


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
    """run_single, but any stage failure lands in the row (with no space,
    no fields and no frozen operator) and the sweep continues."""
    try:
        return run_single(cfg, ahat, eps)
    except Exception as exc:  # noqa: BLE001 - recorded, not swallowed silently
        log.warning("solve at eps=%g failed: %s", eps, exc)
        return _row(eps, f"error-{type(exc).__name__}"), None, {}, None


def _write_probe_tables(cfg: ProblemConfig, ahat: HomogenizedTensor,
                        out: Path) -> float:
    """The linear probes: writes ``hconv.csv`` and ``meyers.csv`` from one
    solve per probe mesh; returns the Meyers observed range."""
    flux = _default_probe_flux(cfg.dim, cfg.system_dim)
    hrows = h_convergence_probe(
        cfg.coefficient, ahat, flux, cfg.eps, modes=cfg.probe.modes,
        cells_per_eps=cfg.probe.cells_per_eps)
    _write_csv(out / "hconv.csv", "hconv", [{
        "eps": r.eps, "h": r.h, "n_cells": r.n_cells,
        "pairing_max": float(r.pairings.max()),
        "flux_pairing_max": float(r.flux_pairings.max()),
        "linf_diff": r.linf_diff, "grad_l2_diff": r.grad_l2_diff,
    } for r in hrows])
    mtable = meyers_probe(hrows, cfg.probe.p_grid)
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
    recorded in their row and the sweep continues.  Rows run finest-first;
    the uniqueness probe restarts around the first converged row's own
    ``u0``, ``ubar`` and ``ueps``, over that row's frozen operator.
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

    # finest first: the probe runs while its row's factors are alive, and
    # the next row runs without this row's mesh
    rows, uniqueness = [], None
    for eps in reversed(cfg.eps):
        row, _, fields, frozen = _guarded_run(cfg, ahat, eps)
        rows.append(row)
        if uniqueness is None and row["status"] == "converged":
            probe = local_uniqueness_probe(
                frozen, cfg.solver, trials=cfg.probe.trials, seed=cfg.seed,
                ubar=fields["ubar"], u_eps=fields["ueps"])
            uniqueness = {
                "eps": eps,
                "all_same": probe.all_same,
                "outside_ball": probe.outside_ball,
                "max_distance": max(probe.distances),
                "statuses": probe.statuses,
            }
        del _, fields, frozen
    rows.reverse()
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

    if uniqueness is not None:
        summary["uniqueness"] = uniqueness
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
            row, space, solution, _ = _guarded_run(
                cfg, ahat, eps if eps is not None else cfg.eps[0])
            (out / "solve.json").write_text(
                json.dumps(row, indent=2, sort_keys=True, default=repr))
            _write_csv(out / "solution.csv", "solution",
                       _solution_rows(space, solution) if space else [])
            log.info("solve row: %s", json.dumps(row, default=repr))
            return int(row["status"].startswith("error-"))
        elif args.command == "probe":
            _write_probe_tables(cfg, ahat, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
