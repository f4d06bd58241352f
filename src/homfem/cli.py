"""Declarative experiment driver.

Problem configs are YAML documents read by one reader (:func:`_section`):
every section, the tensor, flux-term, value-factor and monomial specs
included, is a dataclass whose fields are its keys, and a spec of several
kinds is one dataclass per kind, chosen by its ``kind`` key.  The tensor
and defect kinds are :mod:`homfem.coeff`'s own classes, and the
``nonlinearity`` section, its terms, the value factors, the table ``g``
and the monomial :mod:`homfem.nonlin`'s; their agreement with
``system_dim`` and the domain dimension is checked here, in
``ProblemConfig._field`` and ``ProblemConfig._bind_flux``.  A bad config
fails at parse time with a :class:`ConfigError` naming the key by its full
path, such as ``nonlinearity.terms[1].h.monomials[0].coeff``.  Runs are
reproducible functions of the config and the seed.  Subcommands:

* ``homogenize``: solve the cell problems and export the effective tensor.
* ``solve``: run the pipeline at a single oscillation period.
* ``sweep``: the full pipeline over the configured period list, with CSV
  output, a rate-fit summary, and the linear convergence probes.
* ``probe``: the linear probes alone (weak convergence and gradient
  integrability, from one linear solve per probe mesh).

Every CSV column is documented in the JSON schema files shipped under
``homfem/schemas``; consumers should read CSVs through those schemas.
"""

import argparse
import contextlib
import csv
import functools
import importlib.resources
import json
import logging
import sys
import traceback
import types
import typing
import warnings
from dataclasses import (MISSING, asdict, dataclass, field as dc_field, fields,
                         is_dataclass)
from pathlib import Path

import numpy as np
import yaml

from .cell import homogenized_tensor_1d, solve_cell_problems
from .coeff import (ConstantTensor, EllipticityError, ExpressionTensor,
                    HomogenizedTensor, PiecewiseTensor, TensorField,
                    _finite, add_defect, sample_grid)
from .fem import (FemSpace, LinearSolveError, SineSolver, assemble_diffusion,
                  solve_linear)
from .mesh import build_interval_mesh, build_periodic_cell_mesh, build_unit_square_mesh
from .nonlin import LinearForm, Nested, Nonlinearity, TableFactor, validate
from .norms import (HConvergenceRow, fit_rate, h_convergence_probe,
                    linf_norm, meyers_probe, probe_load)
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
# config schema: each section is a dataclass whose fields are its YAML keys;
# a spec of several kinds is one dataclass per kind, chosen by its ``kind``


_type_hints = functools.cache(typing.get_type_hints)


def _at_least(section, **lows) -> None:
    for name, low in lows.items():
        value = getattr(section, name)
        if not value >= low:
            raise ValueError(f"{name} must be at least {low}, got {value}")


def _check_count(key: str, values: list, count: int, source: str, low=None):
    """A ConfigError naming ``key`` and ``source`` unless ``values`` has
    ``count`` entries, each at least ``low`` when given."""
    if len(values) != count or low is not None and min(values) < low:
        least = "" if low is None else f", each at least {low}"
        raise ConfigError(f"{key} must have {count} entries{least} "
                          f"({source} is {count}), got {values}")


@contextlib.contextmanager
def _naming(key: str):
    """A ValueError in the block, a constructor's, as a ConfigError naming
    ``key``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _check_factor(h, n: int, key: str) -> None:
    """A ConfigError naming the key of ``h`` that disagrees with
    ``system_dim`` ``n``: a linear form's ``coeffs`` or a monomial's
    ``powers``."""
    if isinstance(h, LinearForm):
        _check_count(f"{key}.coeffs", h.coeffs, n, "system_dim")
    for name in ("monomials", "numerator", "denominator"):
        for k, m in enumerate(getattr(h, name, [])):
            _check_count(f"{key}.{name}[{k}].powers", m.powers, n,
                         "system_dim", low=0)


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


TensorSpec = ConstantTensor | PiecewiseTensor | ExpressionTensor


@dataclass
class ProblemConfig:
    """A fully validated experiment description with defaults filled in;
    its fields and its sections' fields are the YAML document's keys,
    those of the tensor, flux-term and value-factor specs included."""

    domain: str = "interval"
    system_dim: int = 1
    tensor: TensorSpec = dc_field(
        default_factory=lambda: ConstantTensor(kind="constant", value=1.0))
    defect: TensorSpec | None = None
    nonlinearity: Nonlinearity = dc_field(default_factory=Nonlinearity)
    eps: list[float] = dc_field(default_factory=lambda: [0.125, 0.0625,
                                                         0.03125])
    mesh: MeshConfig = dc_field(default_factory=MeshConfig)
    quadrature: str = "midpoint"
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    probe: ProbeConfig = dc_field(default_factory=ProbeConfig)
    seed: int = 0
    output: str = "out"

    def __post_init__(self):
        self.warnings = []  # parse_config's; not a key, so asdict skips it
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

    # -- builders ---------------------------------------------------------
    # built once, and so validated, by parse_config; asdict skips them

    @functools.cached_property
    def coefficient(self) -> TensorField:
        base = self._field(self.tensor, "tensor")
        if self.defect is None:
            return base
        dfield = self._field(self.defect, "defect")
        # probe scale only used for the margin check; callers rescale
        try:
            return add_defect(base, dfield,
                              epsilon=self.eps[0]).with_epsilon(None)
        except EllipticityError as exc:
            raise ConfigError(f"tensor.{self.tensor.table}, defect."
                              f"{self.defect.table}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"defect: {exc}") from exc

    def _field(self, spec: TensorSpec, key: str) -> TensorField:
        """The field of the spec at ``key``, or a ConfigError naming the
        key that disagrees with ``system_dim`` or the domain."""
        if isinstance(spec, PiecewiseTensor):
            _check_count(f"{key}.grid", spec.grid, self.dim,
                         "the domain's dimension", low=1)
        with _naming(f"{key}.{spec.table}"):
            return TensorField(self.system_dim, self.dim, spec)

    def _bind_flux(self) -> None:
        """Binds ``nonlinearity`` to ``system_dim`` and the domain, or
        raises a ConfigError naming the term key at fault; a ``g`` must be
        finite where a mesh may put a quadrature point, or every row fails."""
        n, dim = self.system_dim, self.dim
        try:
            self.nonlinearity.bind(n, dim)
        except ValueError as exc:
            raise ConfigError(f"nonlinearity.{exc}") from exc
        grid = sample_grid(dim, 16)
        for k, term in enumerate(self.nonlinearity.terms):
            key = f"nonlinearity.terms[{k}]"
            g_key = f"{key}.g"
            if isinstance(term.g, TableFactor):
                _check_count(f"{g_key}.grid", term.g.grid, dim,
                             "the domain's dimension", low=1)
                g_key += ".values"  # values that do not fill it fail here
            with _naming(g_key):
                values = term.spatial_factor(grid)
            if not np.isfinite(values).all():
                bad = np.argmin(np.isfinite(values))
                raise ConfigError(f"{key}.g must be finite, got {values[bad]} "
                                  f"at {grid[bad]}")
            _check_factor(term.h, n, f"{key}.h")

    def build_domain_space(self, eps: float) -> FemSpace:
        return self._space(max(2, round(self.mesh.cells_per_eps / eps)),
                           self.quadrature)

    def build_probe_space(self, eps: float) -> FemSpace:
        """The linear probe's own space at ``eps``, under the 3-point rule."""
        return self._space(max(4, round(self.probe.cells_per_eps / eps)),
                           "3point")

    def _space(self, cells: int, quadrature: str) -> FemSpace:
        mesh = (build_interval_mesh(cells) if self.dim == 1
                else build_unit_square_mesh(cells))
        return FemSpace(mesh, self.system_dim, quadrature=quadrature)


def _number(value, key: str, kind=int, low=None):
    """``value`` converted by ``kind`` and, when ``low`` is given, at least
    ``low``; otherwise a ConfigError naming ``key``.

    PyYAML reads a float written without a decimal point, such as ``1e-9``,
    as a string; the conversion accepts it.  Booleans and numbers that are
    not finite (NaN and the infinities) are rejected, and an integer key
    rejects a fractional value instead of truncating it.
    """
    try:
        number = kind(value)
        if (isinstance(value, bool) or number != float(value)
                or not np.isfinite(number)):
            raise ValueError("boolean, fractional or not finite")
    except (TypeError, ValueError, OverflowError) as exc:
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from exc
    if low is not None and not number >= low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    return number


def _section(cls, doc, name: str = ""):
    """``cls`` built from the YAML mapping ``doc`` of section ``name``: its
    init fields are the allowed keys, those without a default required, and
    a ValueError from its ``__post_init__`` becomes a ConfigError that names
    the section."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name or 'top level'} must be a mapping, got "
                          f"{type(doc).__name__}")
    prefix = f"{name}." if name else ""
    keys = {f.name: f for f in fields(cls) if f.init}
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown config key {prefix}{key}")
    for key, f in keys.items():
        if key not in doc and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{prefix}{key} is required")
    hints = _type_hints(cls)
    values = {key: _convert(hints[key], value, prefix + key)
              for key, value in doc.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _convert(kind, value, key: str):
    """``value`` as the declared field type ``kind``, or a ConfigError
    naming ``key``: a dataclass type is a nested section, a union is read
    as the member that :func:`_member` picks, each entry of a list is named
    by its index, and a ``Nested[T]`` is read as a ``T`` or a list."""
    if typing.get_origin(kind) is Nested:
        kind = list[kind] if isinstance(value, list) else typing.get_args(
            kind)[0]
    if isinstance(kind, types.UnionType):
        kind = _member(typing.get_args(kind), value, key)
    if is_dataclass(kind):
        return _section(kind, value, key)
    if kind in (int, float):
        return _number(value, key, kind)
    origin = typing.get_origin(kind) or kind
    if origin is typing.Literal:  # a kind tag, checked by _member
        return value
    if not isinstance(value, origin):
        raise ConfigError(f"{key} must be a {origin.__name__}, got {value!r}")
    if origin is list:
        item = typing.get_args(kind)[0]
        return [_convert(item, v, f"{key}[{k}]") for k, v in enumerate(value)]
    return value


def _member(options: tuple, value, key: str):
    """The member of a union that ``value`` is read as.  A mapping is read
    as the section whose ``kind`` its ``kind`` key names, or else the first
    section's default ``kind``; any other value as the first member of its
    type, or else as the first member."""
    sections = [o for o in options if is_dataclass(o)]
    if isinstance(value, dict) and len(sections) > 1:
        kinds = {k: o for o in sections
                 for k in typing.get_args(_type_hints(o)["kind"])}
        kind = value.get("kind", getattr(sections[0], "kind", None))
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{key}.kind must be one of "
                              f"{', '.join(kinds)}, got {kind!r}")
        return kinds[kind]
    return next((o for o in options if isinstance(
        value, dict if is_dataclass(o) else o)), options[0])


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate a YAML problem config; defaults are filled in."""
    cfg = _section(ProblemConfig, yaml.safe_load(text))

    # eager builds validate entry shapes, expressions and catalog membership;
    # the tensor, like each flux factor g, must be finite on the 16-per-axis
    # sample grid, which the hypothesis dichotomy (two space dimensions, or
    # triangular coefficients) reads again on an interval
    base = cfg.coefficient
    grid = sample_grid(cfg.dim, 16)
    with _naming(f"tensor.{cfg.tensor.table}"):
        _finite(cfg.tensor(grid), grid)
        triangular = cfg.dim == 2 or base.triangular
    cfg._bind_flux()
    if not triangular:
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


def _json(doc, indent=None) -> str:
    """``doc`` as strict JSON: a float that is not finite is null."""
    return json.dumps(_finite_or_null(doc), indent=indent, sort_keys=True,
                      default=repr, allow_nan=False)


def _finite_or_null(value):
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


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
    correctors = solve_cell_problems(base, build_periodic_cell_mesh(
        cfg.mesh.cell_resolution, cfg.dim))
    ahat = correctors.ahat
    info = {
        "cell_resolution": cfg.mesh.cell_resolution,
        "corrector_max_abs": correctors.max_abs,
        "corrector_mean_max": float(np.max(np.abs(correctors.means))),
        "margin": ahat.margin,
    }
    if cfg.dim == 1:
        info["inverse_average_gap"] = float(np.max(np.abs(
            ahat.values - homogenized_tensor_1d(base).values)))
    return ahat, info


def _effective_tensor(cfg: ProblemConfig, out: Path):
    """:func:`compute_effective_tensor`, or on failure ``(None, info)``, with
    ``info["status"]`` the error, also written to ``summary.json``."""
    result = _guarded("cell problems", compute_effective_tensor, cfg)
    if not isinstance(result, str):
        return result
    info = {"status": result}
    (out / "summary.json").write_text(_json({"cell": info}, indent=2))
    return None, info


def _row(eps: float, status: str, h: float = np.nan, n_cells: int = 0):
    """A sweep row with nothing measured yet."""
    return {"eps": eps, "h": h, "n_cells": n_cells, "margin": np.nan,
            "ubar_err_linf": np.nan, "ueps_err_linf": np.nan,
            "iterations": 0, "max_contraction": np.nan, "status": status}


@dataclass
class RowResult:
    """What one period's solve reached: the sweep row, the solve space, the
    fields among ``u0``, ``ubar`` and ``ueps``, and the FrozenOperator once
    it was refrozen at ``A_eps + C(u0)``."""

    row: dict
    space: FemSpace | None = None
    fields: dict = dc_field(default_factory=dict)
    frozen: FrozenOperator | None = None


def run_single(cfg: ProblemConfig, ahat: HomogenizedTensor,
               eps: float) -> RowResult:
    """One full solve at a single oscillation period.

    ``Ahat`` and ``A_eps`` are each assembled once and handed to every
    stage that uses them; the resolution check runs once, as ``A_eps`` is
    built.  In 2D, every solve with ``Ahat`` refines over its sine
    transform (:func:`_ahat_near`), so Newton factors nothing there; in 1D
    each Newton step factors ``Ahat + C(u_k)``.  Past Newton the row
    assembles ``C(u0)`` once and factors its two linearizations at ``u0``
    once each, ``Ahat + C(u0)`` for the margin and then ``A_eps + C(u0)``,
    and never holds both factorizations.  The returned ``frozen`` holds the
    factor of ``A_eps + C(u0)``, over which a caller may refine the row's
    linear probe (:func:`_probe_scale`).
    """
    nl = cfg.nonlinearity
    space = cfg.build_domain_space(eps)
    A_hat = assemble_diffusion(space, ahat)
    near = _ahat_near(space, ahat)
    u0, newton_report = solve_homogenized(A_hat, nl, cfg.solver, near=near)
    result = RowResult(_row(eps, "homogenized-" + newton_report.status,
                            space.mesh.spacing, space.mesh.num_cells), space)
    row, fields = result.row, result.fields
    if newton_report.status == "converged":
        fields["u0"] = u0
        try:
            frozen = FrozenOperator(A_hat, nl, u0)
            margin = nondegeneracy_margin(frozen)
        except LinearSolveError:  # discretely degenerate
            margin = 0.0
        row["margin"] = margin
        if margin <= 0:
            row["status"] = "degenerate"
        else:
            frozen.thaw()  # keeps C(u0) alone
            del A_hat, near  # the A_eps stages need neither
            tensor_eps = cfg.coefficient.with_epsilon(eps)
            A_eps = oscillatory_operator(space, tensor_eps, cfg.solver)
            frozen.refreeze(A_eps)
            result.frozen = frozen
            ubar = approximate_solution(frozen)
            fields["ubar"] = ubar
            row["ubar_err_linf"] = linf_norm(ubar - u0)
            u_eps, fp_report = fixed_point_solve(frozen, ubar, cfg.solver)
            fields["ueps"] = u_eps
            row["ueps_err_linf"] = linf_norm(u_eps - u0)
            row["iterations"] = fp_report.iterations
            factors = fp_report.contraction_factors
            row["max_contraction"] = max(factors) if factors else np.nan
            row["status"] = fp_report.status
    return result


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
                **{k: float(nodal[k][slot, comp]) if k in nodal else np.nan
                   for k in ("u0", "ubar", "ueps")},
            })
    return rows


def _guarded(what: str, step, *args, **kwargs):
    """``step(*args, **kwargs)``; on failure, logs that ``what`` failed in
    the outermost homfem function of the traceback outside this module, and
    returns ``"error-<Type>: <message>"`` for a row or summary status."""
    try:
        return step(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - recorded in a status
        frames = [frame for frame, _ in traceback.walk_tb(exc.__traceback__)]
        frame = next((f for f in frames
                      if f.f_globals.get("__name__", "").startswith("homfem.")
                      and f.f_globals["__name__"] != __name__), frames[-1])
        stage = getattr(frame.f_code, "co_qualname", frame.f_code.co_name)
        log.warning("%s failed in %s: %s", what,
                    stage.removesuffix(".__init__"), exc)
        return f"error-{type(exc).__name__}: {exc}"


def _guarded_run(cfg: ProblemConfig, ahat: HomogenizedTensor,
                 eps: float) -> RowResult:
    """run_single, but a failure lands in the row's ``error-<Type>`` status
    (with no space, no fields and no frozen operator); the sweep goes on."""
    result = _guarded(f"solve at eps={eps:g}", run_single, cfg, ahat, eps)
    if isinstance(result, str):
        return RowResult(_row(eps, result.partition(": ")[0]))
    return result


def _ahat_near(space: FemSpace, ahat: HomogenizedTensor):
    """The sine-transform solver of ``Ahat`` on a 2D (unit-square) space,
    the ``near`` that every solve with ``Ahat`` refines over; None in 1D,
    where those solves factor."""
    return SineSolver(space, ahat.values) if space.mesh.dim == 2 else None


def _probe_scale(cfg: ProblemConfig, ahat: HomogenizedTensor, eps: float,
                 space: FemSpace | None = None, near=None) -> HConvergenceRow:
    """The linear probe at ``eps``: on ``space``'s 3-point view when given,
    such as a sweep row's space, else on its own probe space.  The ``Ahat``
    solve refines over the sine transform in 2D and factors in 1D; the
    ``A_eps`` solve refines over ``near`` when given, such as the row's
    ``A_eps + C(u0)`` factor, and factors otherwise."""
    space = (cfg.build_probe_space(eps) if space is None
             else space.with_quadrature("3point"))
    load = probe_load(space)
    u_hat = solve_linear(assemble_diffusion(space, ahat), -load,
                         near=_ahat_near(space, ahat))
    return h_convergence_probe(cfg.coefficient.with_epsilon(eps), ahat,
                               u_hat, load, cfg.probe.modes, near=near)


def _write_probe_tables(cfg: ProblemConfig, ahat: HomogenizedTensor,
                        out: Path, done: dict | None = None) -> dict:
    """Writes ``hconv.csv`` and ``meyers.csv`` from one probe per period:
    ``done``'s, run by the sweep on its rows' spaces, else one that
    :func:`_probe_scale` runs here on its own probe space.  Returns
    the ``summary.json`` entries: the Meyers observed range and, when a
    period failed (it is left out of both tables), ``probe_errors``."""
    done = done or {}
    probes = {eps: done[eps] if eps in done else
              _guarded(f"linear probe at eps={eps:g}", _probe_scale, cfg,
                       ahat, eps)
              for eps in cfg.eps}
    hrows = [r for r in probes.values() if isinstance(r, HConvergenceRow)]
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
    entries = {"meyers_observed_range": mtable.observed_range}
    errors = {eps: r for eps, r in probes.items() if isinstance(r, str)}
    if errors:
        entries["probe_errors"] = errors
    return entries


def run_sweep(cfg: ProblemConfig, out_dir=None) -> dict:
    """The full pipeline over the configured period list.

    Writes ``ahat.json``, ``sweep.csv``, ``hconv.csv``, ``meyers.csv`` and
    ``summary.json`` into the output directory and returns the summary;
    failed cell problems end it with ``summary.json``'s ``cell.status``.
    Deterministic for a fixed config and seed; a period's failure lands in
    its row.  Rows run finest-first; the uniqueness probe restarts around
    the first converged row's ``u0``, ``ubar`` and ``ueps``, over its
    frozen operator; ``summary.json``'s ``uniqueness`` holds its ``eps`` and
    report, or its ``error-<Type>: <message>`` ``status`` if it failed.
    """
    out = Path(out_dir if out_dir is not None else cfg.output)
    with _run_log(cfg, out):
        return _sweep(cfg, out)


def _sweep(cfg: ProblemConfig, out: Path) -> dict:
    validation = validate(cfg.nonlinearity)
    if not validation.passed:
        log.warning("nonlinearity validation failed: %s",
                    validation.reason or "see term reports")

    ahat, cell_info = _effective_tensor(cfg, out)
    if ahat is None:
        return {"cell": cell_info}
    (out / "ahat.json").write_text(ahat.to_json())
    log.info("effective tensor computed: %s", _json(cell_info))

    # finest first: the probe runs while its row's factors are alive, and
    # the next row runs without this row's mesh.  A period is probed on its
    # row's space, refined over the row's A_eps + C(u0), when the probe
    # mesh is the row's mesh and the row reached that factor: the probe
    # builds at least 4 cells per side, the row at least 2, so from 4 cells
    # per period on both build cells_per_eps / eps
    probing = cfg.probe.cells_per_eps == cfg.mesh.cells_per_eps >= 4
    rows, probes, uniqueness = [], {}, None
    for eps in reversed(cfg.eps):
        result = _guarded_run(cfg, ahat, eps)
        rows.append(result.row)
        if probing and result.frozen is not None:
            probes[eps] = _guarded(
                f"linear probe at eps={eps:g}", _probe_scale, cfg, ahat, eps,
                result.space, near=result.frozen.lu)
        if uniqueness is None and result.row["status"] == "converged":
            report = _guarded(
                f"uniqueness probe at eps={eps:g}", local_uniqueness_probe,
                result.frozen, cfg.solver, trials=cfg.probe.trials,
                seed=cfg.seed, ubar=result.fields["ubar"],
                u_eps=result.fields["ueps"])
            uniqueness = ({"eps": eps, "status": report}
                          if isinstance(report, str) else
                          {"eps": eps, "all_same": report.all_same,
                           "outside_ball": report.outside_ball,
                           "max_distance": max(report.distances),
                           "statuses": report.statuses})
        del result
    rows.reverse()
    _write_csv(out / "sweep.csv", "sweep", rows)
    for row in rows:
        log.info("sweep row: %s", _json(row))

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

    summary.update(_write_probe_tables(cfg, ahat, out, probes))

    if uniqueness is not None:
        summary["uniqueness"] = uniqueness
    (out / "summary.json").write_text(_json(summary, indent=2))
    log.info("summary: %s", _json(summary))
    return summary


@contextlib.contextmanager
def _run_log(cfg: ProblemConfig, out: Path):
    """One command's log: ``out/run.log`` and stderr, opening with the
    config's warnings, one line each, and then its keys as a JSON line,
    itself a config.  Every ``warnings.warn`` inside the block (the
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
    log.info("effective config: %s",
             json.dumps(asdict(cfg), sort_keys=True))
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
    if args.command == "sweep":  # opens its own run log
        summary = run_sweep(cfg, out)
        return int("status" in summary["cell"]
                   or "status" in summary.get("uniqueness", {}))

    with _run_log(cfg, out):
        ahat, info = _effective_tensor(cfg, out)
        if ahat is None:
            return 1
        if args.command == "homogenize":
            (out / "ahat.json").write_text(ahat.to_json())
            log.info("wrote ahat.json: %s", _json(info))
        elif args.command == "solve":
            result = _guarded_run(cfg, ahat,
                                  eps if eps is not None else cfg.eps[0])
            row = result.row
            (out / "solve.json").write_text(_json(row, indent=2))
            _write_csv(out / "solution.csv", "solution",
                       _solution_rows(result.space, result.fields)
                       if result.space else [])
            log.info("solve row: %s", _json(row))
            return int(row["status"].startswith("error-"))
        elif args.command == "probe":
            return int("probe_errors" in _write_probe_tables(cfg, ahat, out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
