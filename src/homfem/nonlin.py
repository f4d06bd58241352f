"""Flux nonlinearities f_i^a(x, u) in separable product form.

Each flux component is a finite sum of terms g(x) * h(u) where g is a
spatial factor (expression string or piecewise table, with a declared
integrability exponent p0) and h comes from a small catalog with exact
derivatives: polynomials in the field components, sin/cos and exp of linear
forms, and rationals with nonvanishing denominator.  The catalog keeps
validation decidable; no growth restriction is imposed on h since all
evaluations happen on bounded nodal ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import compile_expression
from .fem import FemSpace, DiscreteField

__all__ = [
    "Polynomial",
    "Sinusoid",
    "ExpLinear",
    "Rational",
    "Constant",
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
# value-factor catalog


class _ValueFactor:
    """Base class: h(u) with exact gradient, vectorized over (m, n) samples."""

    def __call__(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Constant(_ValueFactor):
    """h(u) = c, the field-independent factor."""

    def __init__(self, value: float = 1.0, n: int = 1):
        self.value = float(value)
        self.n = n

    def __call__(self, u):
        return np.full(u.shape[0], self.value)

    def gradient(self, u):
        return np.zeros_like(u)


class Polynomial(_ValueFactor):
    """h(u) = sum of coeff * u1^e1 * ... * un^en monomials."""

    def __init__(self, monomials, n: int):
        self.n = n
        self.monomials = [(float(c), tuple(int(e) for e in powers))
                          for c, powers in monomials]
        for _, powers in self.monomials:
            if len(powers) != n or any(e < 0 for e in powers):
                raise ValueError(f"bad monomial powers {powers} for n={n}")

    def __call__(self, u):
        out = np.zeros(u.shape[0])
        for c, powers in self.monomials:
            term = np.full(u.shape[0], c)
            for b, e in enumerate(powers):
                if e:
                    term = term * u[:, b] ** e
            out += term
        return out

    def gradient(self, u):
        out = np.zeros_like(u)
        for c, powers in self.monomials:
            for b, e in enumerate(powers):
                if not e:
                    continue
                term = np.full(u.shape[0], c * e)
                for k, ek in enumerate(powers):
                    p = ek - 1 if k == b else ek
                    if p:
                        term = term * u[:, k] ** p
                out[:, b] += term
        return out


class _LinearFormFactor(_ValueFactor):
    def __init__(self, coeffs, shift: float = 0.0, n: int = 1):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (n,):
            raise ValueError(f"linear form needs {n} coefficients")
        self.shift = float(shift)
        self.n = n

    def _form(self, u):
        return u @ self.coeffs + self.shift


class Sinusoid(_LinearFormFactor):
    """h(u) = sin or cos of a linear form in the field components."""

    def __init__(self, kind: str, coeffs, shift: float = 0.0, n: int = 1):
        if kind not in ("sin", "cos"):
            raise ValueError(f"kind must be 'sin' or 'cos', got {kind!r}")
        super().__init__(coeffs, shift, n)
        self.kind = kind

    def __call__(self, u):
        s = self._form(u)
        return np.sin(s) if self.kind == "sin" else np.cos(s)

    def gradient(self, u):
        s = self._form(u)
        d = np.cos(s) if self.kind == "sin" else -np.sin(s)
        return d[:, None] * self.coeffs[None, :]


class ExpLinear(_LinearFormFactor):
    """h(u) = exp of a linear form in the field components."""

    def __call__(self, u):
        return np.exp(self._form(u))

    def gradient(self, u):
        return np.exp(self._form(u))[:, None] * self.coeffs[None, :]


class Rational(_ValueFactor):
    """h(u) = P(u) / Q(u) with polynomial P, Q and Q nonvanishing."""

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if numerator.n != denominator.n:
            raise ValueError("numerator and denominator dimensions differ")
        self.n = numerator.n
        self.num = numerator
        self.den = denominator

    def _den_values(self, u):
        q = self.den(u)
        if np.any(np.abs(q) < 1e-14):
            bad = int(np.argmin(np.abs(q)))
            raise EvaluationDomainError(
                f"rational factor denominator vanishes at u = {u[bad]}", bad)
        return q

    def __call__(self, u):
        return self.num(u) / self._den_values(u)

    def gradient(self, u):
        q = self._den_values(u)
        p = self.num(u)
        return (self.num.gradient(u) * q[:, None]
                - p[:, None] * self.den.gradient(u)) / (q ** 2)[:, None]


# --------------------------------------------------------------------------
# spatial factors


class _SpatialFactor:
    def __call__(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ExpressionFactor(_SpatialFactor):
    def __init__(self, text: str, dim: int):
        self.fn = compile_expression(text, dim)
        self.source = text

    def __call__(self, pts):
        return self.fn(pts)


class TableFactor(_SpatialFactor):
    """Piecewise-constant values on a uniform grid over the domain."""

    def __init__(self, grid, values, dim: int):
        self.grid = tuple(int(g) for g in grid)
        if len(self.grid) != dim:
            raise ValueError("table grid does not match dimension")
        self.values = np.asarray(values, dtype=float).reshape(self.grid)
        self.source = f"table{self.grid}"

    def __call__(self, pts):
        idx = tuple(
            np.clip((pts[:, k] * g).astype(int), 0, g - 1)
            for k, g in enumerate(self.grid))
        return self.values[idx]


@dataclass
class Term:
    """One separable contribution g(x) * h(u) to the flux entry (alpha, i)."""

    alpha: int
    i: int
    g: _SpatialFactor
    h: _ValueFactor
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

    def flux_values(self, pts: np.ndarray, u_vals: np.ndarray) -> np.ndarray:
        """f_i^a at the given points, shape (m, n, dim)."""
        m = pts.shape[0]
        out = np.zeros((m, self.n, self.dim))
        for t in self.terms:
            out[:, t.alpha, t.i] += t.g(pts) * t.h(u_vals)
        return out

    def flux_jacobian(self, pts: np.ndarray, u_vals: np.ndarray) -> np.ndarray:
        """d f_i^a / d u^b at the given points, shape (m, n, dim, n)."""
        m = pts.shape[0]
        out = np.zeros((m, self.n, self.dim, self.n))
        for t in self.terms:
            out[:, t.alpha, t.i, :] += t.g(pts)[:, None] * t.h.gradient(u_vals)
        return out


def _quad_data(space: FemSpace, u: DiscreteField):
    if u.space is not space:
        raise ValueError("field does not live on the given space")
    nc, nq = space.quad_points.shape[:2]
    pts = space.quad_points.reshape(nc * nq, space.mesh.dim)
    u_vals = space.values_at_quadrature(u.values).reshape(nc * nq, space.n)
    return nc, nq, pts, u_vals


def eval_F(nl: Nonlinearity, space: FemSpace, u: DiscreteField) -> np.ndarray:
    """Flux values f(x_q, u(x_q)), shape (num_cells, nq, n, dim)."""
    nc, nq, pts, u_vals = _quad_data(space, u)
    try:
        vals = nl.flux_values(pts, u_vals)
    except EvaluationDomainError as exc:
        raise ValueError(
            f"flux undefined at quadrature point {pts[exc.index]}: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals).reshape(len(pts), -1).all(axis=1))[0, 0]
        raise ValueError(f"flux evaluation failed at point {pts[bad]}")
    return vals.reshape(nc, nq, nl.n, nl.dim)


def eval_F_jacobian(nl: Nonlinearity, space: FemSpace, u: DiscreteField) -> np.ndarray:
    """Flux derivatives at u, shape (num_cells, nq, n, dim, n)."""
    nc, nq, pts, u_vals = _quad_data(space, u)
    try:
        jac = nl.flux_jacobian(pts, u_vals)
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
    refinement_ratio: float
    integrable: bool
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
    divergent factors can evade a sampled check; the ratio is reported so
    borderline terms are visible.
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
            integral_estimate=estimates[-1], refinement_ratio=ratio,
            integrable=stable, passed=stable and exponent_ok))
    if not report.exponent_ok:
        report.reason = f"p0 must exceed N (p0={nl.p0}, N={dim})"
    return report
