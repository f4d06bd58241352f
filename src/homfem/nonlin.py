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
ranges.  Each catalog kind, the table g and the monomial is one dataclass
whose fields are its config keys; none takes n or N, whose agreement with a
factor's powers, coefficients or grid :mod:`homfem.cli` checks.

:func:`eval_F` and :func:`eval_F_jacobian` take each term's g at a space's
quadrature points from :meth:`~homfem.fem.FemSpace.quadrature_values`, so
it is evaluated once per space, not once per flux evaluation.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class Term:
    """One separable contribution g(x) * h(u) to the flux entry (alpha, i)."""

    alpha: int
    i: int
    g: typing.Callable[[np.ndarray], np.ndarray]  # spatial factor
    h: typing.Callable[[np.ndarray], np.ndarray]  # catalog value factor
    p0: float


class Nonlinearity:
    """The flux nonlinearity [f_i^a(x, u)] as lists of separable terms.

    ``p0`` is the declared integrability exponent of the spatial factors and
    must exceed the space dimension.
    """

    def __init__(self, n: int, dim: int, terms, p0: float):
        self.n = int(n)
        self.dim = int(dim)
        self.p0 = float(p0)
        self.terms = []
        for t in terms:
            self.term(t.alpha, t.i, t.g, t.h, t.p0)

    def term(self, alpha, i, g, h, p0=None):
        """Append a term, with its target range checked, and return self."""
        if not (0 <= alpha < self.n and 0 <= i < self.dim):
            raise ValueError(f"term targets ({alpha}, {i}) outside the "
                             f"(n={self.n}, N={self.dim}) flux index range")
        self.terms.append(Term(alpha, i, g, h, p0 if p0 is not None else self.p0))
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
    spatial = [space.quadrature_values(t.g) for t in nl.terms]
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
        estimates = [_estimate_gp_integral(t.g, t.p0, dim, m) for m in levels]
        finite = all(np.isfinite(e) for e in estimates)
        ratio = estimates[-1] / estimates[-2] if finite and estimates[-2] > 0 else np.inf
        stable = finite and (estimates[-1] == 0.0 or ratio <= 1.2)
        exponent_ok = t.p0 > dim
        source = getattr(t.g, "source", type(t.g).__name__)
        report.terms.append(TermReport(
            alpha=t.alpha, i=t.i, source=source,
            integral_estimate=estimates[-1], passed=stable and exponent_ok))
    if not report.exponent_ok:
        report.reason = f"p0 must exceed N (p0={nl.p0}, N={dim})"
    return report
