"""Flux nonlinearities f_i^a(x, u) in separable product form.

Each flux component is a finite sum of terms g(x) * h(u) where g is a
spatial factor with a declared integrability exponent p0 (an expression
compiled by :func:`~homfem.expressions.compile_expression`, or a piecewise
table; either maps points (m, N) to values (m,)) and h comes from a small
catalog with exact derivatives: polynomials in the field components,
sin/cos and exp of linear forms, and rationals with nonvanishing
denominator, each mapping samples (m, n) to values (m,) and, by
``gradient``, to (m, n).  The catalog keeps validation decidable; no growth
restriction is imposed on h since all evaluations happen on bounded nodal
ranges.  Each catalog kind, the table g, the monomial, the flux
:class:`Term` and the :class:`Nonlinearity` is one dataclass whose fields
are its config keys.  Only the flux and its terms take n and N, in
``bind``, which checks each term's target and compiles its g; a value
factor's powers and coefficients and a table's grid are checked against
them by :mod:`homfem.cli`.

:func:`eval_F` and :func:`eval_F_jacobian` take each term's g at a space's
quadrature points from :meth:`~homfem.fem.FemSpace.quadrature_values`, so
it is evaluated once per space, not once per flux evaluation.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

from .expressions import compile_expression
from .fem import FemSpace, DiscreteField

__all__ = [
    "Monomial",
    "Constant",
    "Polynomial",
    "LinearForm",
    "Rational",
    "TableFactor",
    "Term",
    "Nonlinearity",
    "EvaluationDomainError",
    "eval_F",
    "eval_F_jacobian",
    "validate",
    "ValidationReport",
]


class EvaluationDomainError(ValueError):
    """A catalog factor was evaluated where it is undefined."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# --------------------------------------------------------------------------
# value-factor catalog and spatial tables


class Nested(typing.Generic[typing.TypeVar("T")]):
    """The field type of a ``T`` or a list of ``Nested[T]``, to any depth."""


@dataclass
class Monomial:
    """``coeff * u1^p1 * ... * un^pn``, with ``powers`` ``[p1, ..., pn]``."""

    coeff: float
    powers: list[int]


@dataclass
class Constant:
    """h(u) = value; a config ``h`` without ``kind`` is read as this one."""

    value: float = 1.0
    kind: typing.Literal["constant"] = "constant"

    def __call__(self, u):
        return np.full(u.shape[0], self.value)

    def gradient(self, u):
        return np.zeros_like(u)


@dataclass
class Polynomial:
    """h(u), the sum of the ``monomials``."""

    monomials: list[Monomial]
    kind: typing.Literal["polynomial"] = "polynomial"

    def __call__(self, u):
        out = np.zeros(u.shape[0])
        for m in self.monomials:
            term = np.full(u.shape[0], m.coeff)
            for b, e in enumerate(m.powers):
                if e:
                    term = term * u[:, b] ** e
            out += term
        return out

    def gradient(self, u):
        out = np.zeros_like(u)
        for m in self.monomials:
            for b, e in enumerate(m.powers):
                if not e:
                    continue
                term = np.full(u.shape[0], m.coeff * e)
                for k, ek in enumerate(m.powers):
                    p = ek - 1 if k == b else ek
                    if p:
                        term = term * u[:, k] ** p
                out[:, b] += term
        return out


@dataclass
class LinearForm:
    """h(u), the ``kind`` function of ``coeffs . u + shift``."""

    kind: typing.Literal["sin", "cos", "exp"]
    coeffs: list[float]
    shift: float = 0.0
    _functions = {"sin": (np.sin, np.cos),  # per kind: h and its derivative
                  "cos": (np.cos, lambda s: -np.sin(s)),
                  "exp": (np.exp, np.exp)}

    def __post_init__(self):
        self._h, self._dh = self._functions[self.kind]
        self._coeffs = np.asarray(self.coeffs, dtype=float)

    def __call__(self, u):
        return self._h(u @ self._coeffs + self.shift)

    def gradient(self, u):
        d = self._dh(u @ self._coeffs + self.shift)
        return d[:, None] * self._coeffs[None, :]


@dataclass
class Rational:
    """h(u), the ``numerator`` monomials' sum over the ``denominator``
    ones', which must not vanish where h is evaluated."""

    numerator: list[Monomial]
    denominator: list[Monomial]
    kind: typing.Literal["rational"] = "rational"

    def __post_init__(self):
        self._num = Polynomial(self.numerator)
        self._den = Polynomial(self.denominator)

    def _den_values(self, u):
        q = self._den(u)
        if np.any(np.abs(q) < 1e-14):
            bad = int(np.argmin(np.abs(q)))
            raise EvaluationDomainError(
                f"rational factor denominator vanishes at u = {u[bad]}", bad)
        return q

    def __call__(self, u):
        return self._num(u) / self._den_values(u)

    def gradient(self, u):
        q = self._den_values(u)
        p = self._num(u)
        return (self._num.gradient(u) * q[:, None]
                - p[:, None] * self._den.gradient(u)) / (q ** 2)[:, None]


@dataclass(eq=False)  # hashed by identity: spaces cache g's values by g
class TableFactor:
    """g(x), ``values`` on the cells of a uniform ``grid`` of the domain,
    nested by grid axis or flat."""

    grid: list[int]
    values: list[Nested[float]]

    @property
    def source(self) -> str:
        return f"table{tuple(self.grid)}"

    def __call__(self, pts):
        values = np.asarray(self.values, dtype=float).reshape(self.grid)
        idx = tuple(
            np.clip((pts[:, k] * g).astype(int), 0, g - 1)
            for k, g in enumerate(self.grid))
        return values[idx]


@dataclass(kw_only=True)
class Term:
    """``g(x) h(u)``, added to the flux entry ``target`` ``[alpha, i]``
    (counted from 1); ``p0`` defaults to the flux's.  ``g`` is an
    expression (a number is read as one) or a table."""

    target: list[int]
    g: float | str | TableFactor
    h: Constant | Polynomial | LinearForm | Rational = field(
        default_factory=Constant)
    p0: float | None = None

    def bind(self, n, dim):
        """Checks ``target`` against ``n`` and ``dim`` and stores it as the
        0-based ``alpha`` and ``i``, and g as the ``spatial_factor`` of
        points (m, dim)."""
        target = self.target
        if not (len(target) == 2 and 0 < target[0] <= n
                and 0 < target[1] <= dim):
            raise ValueError(f"target must be an integer pair in [1, {n}] x "
                             f"[1, {dim}], got {target!r}")
        self.alpha, self.i = target[0] - 1, target[1] - 1
        self.spatial_factor = self.g  # a table is its own factor
        if not isinstance(self.g, TableFactor):
            try:
                self.spatial_factor = compile_expression(str(self.g), dim)
            except ValueError as exc:
                raise ValueError(f"g: {exc}") from exc


@dataclass
class Nonlinearity:
    """The flux nonlinearity [f_i^a(x, u)] as a list of separable terms.

    ``p0`` is the declared integrability exponent of the spatial factors
    that declare none, and must exceed the space dimension.
    """

    p0: float = 4.0
    terms: list[Term] = field(default_factory=list)

    def bind(self, n, dim):
        """Sets ``n`` and ``dim`` and binds each term, whose error is
        named by its ``terms[k]`` key; returns self."""
        self.n, self.dim = int(n), int(dim)
        for k, t in enumerate(self.terms):
            try:
                t.bind(self.n, self.dim)
            except ValueError as exc:
                raise ValueError(f"terms[{k}].{exc}") from exc
        return self

    def flux_values(self, spatial: list, u_vals: np.ndarray) -> np.ndarray:
        """f_i^a at m points, shape (m, n, dim), from each term's spatial
        factor g there, shape (m,), and the field values, shape (m, n)."""
        out = np.zeros((u_vals.shape[0], self.n, self.dim))
        for t, g in zip(self.terms, spatial):
            out[:, t.alpha, t.i] += g * t.h(u_vals)
        return out

    def flux_jacobian(self, spatial: list, u_vals: np.ndarray) -> np.ndarray:
        """d f_i^a / d u^b at m points, shape (m, n, dim, n), from the same
        data as :meth:`flux_values`."""
        out = np.zeros((u_vals.shape[0], self.n, self.dim, self.n))
        for t, g in zip(self.terms, spatial):
            out[:, t.alpha, t.i, :] += g[:, None] * t.h.gradient(u_vals)
        return out


def _quad_data(nl: Nonlinearity, space: FemSpace, u: DiscreteField):
    """The space's quadrature points, the terms' spatial factors there
    (evaluated once per space), and ``u`` there."""
    if u.space is not space:
        raise ValueError("field does not live on the given space")
    nc, nq = space.quad_points.shape[:2]
    pts = space.quad_points.reshape(nc * nq, space.mesh.dim)
    spatial = [space.quadrature_values(t.spatial_factor) for t in nl.terms]
    u_vals = space.values_at_quadrature(u.values).reshape(nc * nq, space.n)
    return nc, nq, pts, spatial, u_vals


def eval_F(nl: Nonlinearity, space: FemSpace, u: DiscreteField) -> np.ndarray:
    """Flux values f(x_q, u(x_q)), shape (num_cells, nq, n, dim)."""
    nc, nq, pts, spatial, u_vals = _quad_data(nl, space, u)
    try:
        vals = nl.flux_values(spatial, u_vals)
    except EvaluationDomainError as exc:
        raise ValueError(
            f"flux undefined at quadrature point {pts[exc.index]}: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals).reshape(len(pts), -1).all(axis=1))[0, 0]
        raise ValueError(f"flux evaluation failed at point {pts[bad]}")
    return vals.reshape(nc, nq, nl.n, nl.dim)


def eval_F_jacobian(nl: Nonlinearity, space: FemSpace, u: DiscreteField) -> np.ndarray:
    """Flux derivatives at u, shape (num_cells, nq, n, dim, n)."""
    nc, nq, pts, spatial, u_vals = _quad_data(nl, space, u)
    try:
        jac = nl.flux_jacobian(spatial, u_vals)
    except EvaluationDomainError as exc:
        raise ValueError(
            f"flux derivative undefined at quadrature point "
            f"{pts[exc.index]}: {exc}") from exc
    return jac.reshape(nc, nq, nl.n, nl.dim, nl.n)


# --------------------------------------------------------------------------
# validation


@dataclass
class TermReport:
    alpha: int
    i: int
    source: str
    integral_estimate: float
    passed: bool


@dataclass
class ValidationReport:
    p0: float
    dim: int
    exponent_ok: bool
    reason: str = ""
    terms: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.exponent_ok and all(t.passed for t in self.terms)


def _estimate_gp_integral(g, p0, dim, per_axis):
    from .coeff import sample_grid
    pts = sample_grid(dim, per_axis)
    vals = np.abs(g(pts)) ** p0
    return float(vals.mean())  # |domain| = 1


def validate(nl: Nonlinearity) -> ValidationReport:
    """Check the declared exponent and the integrability of each g factor.

    The integral of |g|^p0 is estimated by midpoint sampling at three
    refinement levels; a term passes when the estimates stay finite and the
    last refinement grows the value by at most 20% (integrable singularities
    stabilize, divergent ones keep growing: a local |x|^-s blow-up of the
    integrand inflates the estimate by 2^(s-1) per refinement).  Marginally
    divergent factors can evade a sampled check.
    """
    dim = nl.dim
    report = ValidationReport(p0=nl.p0, dim=dim, exponent_ok=nl.p0 > dim)
    levels = (1024, 2048, 4096) if dim == 1 else (64, 128, 256)
    for t in nl.terms:
        p0 = nl.p0 if t.p0 is None else t.p0
        estimates = [_estimate_gp_integral(t.spatial_factor, p0, dim, m)
                     for m in levels]
        finite = all(np.isfinite(e) for e in estimates)
        ratio = estimates[-1] / estimates[-2] if finite and estimates[-2] > 0 else np.inf
        stable = finite and (estimates[-1] == 0.0 or ratio <= 1.2)
        exponent_ok = p0 > dim
        report.terms.append(TermReport(
            alpha=t.alpha, i=t.i, source=t.spatial_factor.source,
            integral_estimate=estimates[-1], passed=stable and exponent_ok))
    if not report.exponent_ok:
        report.reason = f"p0 must exceed N (p0={nl.p0}, N={dim})"
    return report
