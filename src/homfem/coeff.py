"""Diffusion tensor fields a_ij^{ab}(eps, x).

A :class:`TensorField` is a periodic base tensor on the unit cell, optionally
rescaled by a small parameter ``eps`` (values are then ``base((x/eps) mod 1)``)
and optionally perturbed by a localized defect evaluated at ``x/eps`` without
wrapping, so the defect is seen once instead of repeating with the period.

Entries come from three kinds, each a dataclass whose fields are its config
keys: :class:`ConstantTensor`, :class:`PiecewiseTensor` (a table on a
uniform grid over the unit cell, zero outside it when it is a defect) and
:class:`ExpressionTensor` (closed-form strings, see
:mod:`homfem.expressions`).  Arbitrary callbacks are deliberately not
supported so that problem configs stay serializable.  Each kind's
``bind`` checks its fit to the system size and the dimension, and leads
each error with the key at fault.  Triangularity (no entry with
alpha > beta) is read from samples on first access.

Ellipticity bookkeeping is observational: the pointwise quadratic-form margin
is sampled on a grid (default 256 per axis) and reported as an observed
value, since the entries are only essentially bounded.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import dataclass

import numpy as np

from .expressions import compile_expression
from .mesh import sample_grid
from .nonlin import Nested, _check_count, _led_by

__all__ = [
    "ConstantTensor",
    "PiecewiseTensor",
    "ExpressionTensor",
    "TensorField",
    "HomogenizedTensor",
    "add_defect",
    "EllipticityError",
    "DEFAULT_SAMPLE_GRID",
]

DEFAULT_SAMPLE_GRID = 256


class EllipticityError(ValueError):
    """The tensor plus a defect is not elliptic where :func:`add_defect`
    samples it."""


def _as_entry_array(n, dim, value):
    """Normalize a tensor entry spec to shape (n, n, dim, dim)."""
    if np.isscalar(value):
        out = np.zeros((n, n, dim, dim))
        for a in range(n):
            for i in range(dim):
                out[a, a, i, i] = float(value)
        return out
    arr = np.asarray(value, dtype=float)
    if arr.shape == (n, n, dim, dim):
        return arr.copy()
    if n == 1 and arr.shape == (dim, dim):
        return arr.reshape(1, 1, dim, dim).copy()
    if dim == 1 and arr.shape == (n, n):
        return arr.reshape(n, n, 1, 1).copy()
    raise ValueError(
        f"cannot interpret entry of shape {arr.shape} as an "
        f"(n={n}, n={n}, N={dim}, N={dim}) tensor")


def _flatten_table(values, grid):
    """Flatten a possibly nested table to a row-major entry list.

    Entries may themselves be scalars or arrays, so numpy's automatic
    nesting detection cannot be used here.  Accepts either a flat row-major
    list or nesting that follows the grid shape.
    """
    if len(grid) == 1:
        return list(values)
    values = list(values)
    if len(values) == grid[0]:
        try:
            return [v for row in values
                    for v in _flatten_table(row, grid[1:])]
        except TypeError:
            pass
    return values


@dataclass(kw_only=True)
class ConstantTensor:
    """``value`` everywhere: ``c delta_ab delta_ij`` for a number ``c``, or
    a full ``[alpha][beta][i][j]`` nest."""

    kind: typing.Literal["constant"]
    value: Nested[float]
    table = "value"

    def bind(self, n, dim):
        with _led_by("value"):
            self.array = _as_entry_array(n, dim, self.value)

    def __call__(self, pts):
        return np.broadcast_to(self.array, (pts.shape[0],) + self.array.shape).copy()


@dataclass(kw_only=True)
class PiecewiseTensor:
    """``values`` on the cells of a uniform ``grid`` of the unit cell, each
    entry as a constant tensor's ``value``, nested by grid axis or flat."""

    kind: typing.Literal["piecewise"]
    grid: list[int]
    values: list[Nested[float]]
    table = "values"

    def bind(self, n, dim):
        _check_count("grid", self.grid, dim, "the domain's dimension", low=1)
        grid = tuple(int(g) for g in self.grid)
        with _led_by("values"):
            flat = _flatten_table(self.values, grid)
            if len(flat) != int(np.prod(grid)):
                raise ValueError(
                    f"piecewise table has {len(flat)} entries, grid needs "
                    f"{int(np.prod(grid))}")
            table = np.stack([_as_entry_array(n, dim, v) for v in flat])
        self.cells = table.reshape(grid + (n, n, dim, dim))

    def __call__(self, pts, zero_outside=False):
        m = pts.shape[0]
        idx = []
        inside = np.ones(m, dtype=bool)
        for axis, g in enumerate(self.cells.shape[:-4]):
            raw = np.floor(pts[:, axis] * g).astype(int)
            inside &= (raw >= 0) & (raw < g)
            idx.append(np.clip(raw, 0, g - 1))
        out = self.cells[tuple(idx)].copy()
        if zero_outside:
            out[~inside] = 0.0
        return out


@dataclass(kw_only=True)
class ExpressionTensor:
    """``entries``, an ``[alpha][beta][i][j]`` nest of expression strings
    and numbers, or one string ``s`` for ``s delta_ab delta_ij``."""

    kind: typing.Literal["expression"]
    entries: Nested[float | str]
    table = "entries"

    def bind(self, n, dim):
        entries = self.entries
        if isinstance(entries, str):
            entries = [[[[entries if (a == b and i == j) else 0.0
                          for j in range(dim)] for i in range(dim)]
                        for b in range(n)] for a in range(n)]
        with _led_by("entries"):
            table = np.array(entries, dtype=object)
            if table.shape != (n, n, dim, dim):
                raise ValueError(
                    f"cannot interpret entries of shape {table.shape} as an "
                    f"(n={n}, n={n}, N={dim}, N={dim}) tensor")
            self.fns = np.empty(table.shape, dtype=object)
            for idx, e in np.ndenumerate(table):
                self.fns[idx] = (compile_expression(e, dim)
                                 if isinstance(e, str) else float(e))

    def __call__(self, pts):
        out = np.empty((pts.shape[0],) + self.fns.shape)
        for idx, f in np.ndenumerate(self.fns):
            out[(slice(None),) + idx] = f(pts) if callable(f) else f
        return out


def _finite(values, pts):
    """``values``, a tensor's at the points ``pts``, or a ValueError naming
    the first point where they are not finite."""
    if not np.all(np.isfinite(values)):
        bad = np.isfinite(values).reshape(len(pts), -1).all(axis=1).argmin()
        raise ValueError(f"tensor evaluation failed at point {pts[bad]}")
    return values


def _unwrapped(spec, pts):
    """A defect's values at points not wrapped into the unit cell: a
    table's are zero off the cell, where a base's are clipped into it."""
    if isinstance(spec, PiecewiseTensor):
        return spec(pts, zero_outside=True)
    return spec(pts)


class TensorField:
    """Diffusion tensor a(eps, x) = base((x/eps) mod 1) + defect(x/eps).

    ``base`` and ``defect`` are tensor specs, bound here to ``n`` and
    ``dim``; a spec keeps the binding of the last field built on it.
    ``epsilon=None`` means the base is evaluated at x directly (no
    rescale); the defect, when present, is always evaluated unwrapped.
    """

    def __init__(self, n, dim, base, epsilon=None, defect=None):
        self.n = int(n)
        self.dim = int(dim)
        self.base = base
        self.epsilon = epsilon
        self.defect = defect  # evaluated at x/eps, unwrapped
        self._margin = None
        if epsilon is not None and epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        for spec in (base, defect):
            if spec is not None:
                spec.bind(self.n, self.dim)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, points):
        """Tensor values at physical points, shape (m, n, n, N, N)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        y = pts if self.epsilon is None else pts / self.epsilon
        vals = self.base(np.mod(y, 1.0))
        if self.defect is not None:
            vals = vals + _unwrapped(self.defect, y)
        return _finite(vals, pts)

    def with_epsilon(self, epsilon):
        """The same coefficient family member at scale ``epsilon``."""
        return TensorField(self.n, self.dim, self.base, epsilon=epsilon,
                           defect=self.defect)

    def without_defect(self):
        """The periodic base alone; the cell problems and the effective
        tensor are defined through it, never through the defect."""
        if self.defect is None:
            return self
        return TensorField(self.n, self.dim, self.base, epsilon=self.epsilon)

    # -- validation -----------------------------------------------------

    @functools.cached_property
    def triangular(self) -> bool:
        """No entry with alpha > beta, read from 16 samples per axis on
        the first access."""
        if self.n == 1:
            return True
        vals = self._sample_values(16)
        lower = [abs(vals[:, a, b]).max()
                 for a in range(self.n) for b in range(self.n) if a > b]
        scale = max(abs(vals).max(), 1.0)
        return max(lower) <= 1e-14 * scale

    def _sample_values(self, per_axis):
        # samples the physical domain, so rescaled oscillations are included
        return self.evaluate(sample_grid(self.dim, per_axis))

    def observed_margin(self):
        if self._margin is None:
            vals = self._sample_values(DEFAULT_SAMPLE_GRID)
            self._margin = float(_quadratic_form_margin(vals).min())
        return self._margin

    def require_elliptic(self):
        margin = self.observed_margin()
        if margin <= 0.0:
            raise ValueError(
                f"tensor fails the pointwise ellipticity check: observed "
                f"quadratic-form margin {margin:.3e} <= 0")
        return margin


def _quadratic_form_margin(values):
    """Smallest eigenvalue of the symmetrized (nN)x(nN) form, per point.

    Works through 4,096 points at a time, so the transposed and
    symmetrized copies of a whole sample never exist at once; every
    point's eigenvalues are computed on their own, so the blocks move no
    bit of the result.
    """
    m, n, dim = values.shape[0], values.shape[1], values.shape[3]
    margin, block = np.empty(m), 4096
    for start in range(0, m, block):
        q = np.transpose(values[start:start + block], (0, 1, 3, 2, 4)).reshape(
            -1, n * dim, n * dim)
        sym = 0.5 * (q + np.transpose(q, (0, 2, 1)))
        margin[start:start + block] = np.linalg.eigvalsh(sym)[:, 0]
    return margin


def _mean_density_profile(spec, radii, centers, spacing=1.0 / 32.0):
    """max over centers of (1/r^N) * integral of |b| over the r-ball.

    The sample spacing is held fixed across radii so the estimates at
    different r are comparable.
    """
    dim = centers.shape[1]
    out = []
    for r in radii:
        grid = max(8, int(np.ceil(2.0 * r / spacing)))
        worst = 0.0
        for c in centers:
            ticks = [np.linspace(c[k] - r, c[k] + r, grid, endpoint=False)
                     + r / grid for k in range(dim)]
            if dim == 1:
                pts = ticks[0].reshape(-1, 1)
            else:
                xx, yy = np.meshgrid(*ticks, indexing="ij")
                pts = np.column_stack([xx.ravel(), yy.ravel()])
            inside = np.linalg.norm(pts - c, axis=1) < r
            vol_el = (2.0 * r / grid) ** dim
            vals = np.abs(_unwrapped(spec, pts)).sum(axis=(1, 2, 3, 4))
            worst = max(worst, float(vals[inside].sum()) * vol_el / r ** dim)
        out.append(worst)
    return out


def add_defect(base: TensorField, defect: TensorField, epsilon: float) -> TensorField:
    """Perturb a periodic tensor family by a localized defect.

    The defect's vanishing mean density is spot-checked: the mean of
    |defect| over balls of growing radius around a few sample centers must
    decay.  The combined field must keep a positive observed ellipticity
    margin.
    """
    if base.n != defect.n or base.dim != defect.dim:
        raise ValueError("base and defect dimensions do not match")
    centers = np.full((3, base.dim), 0.5)
    centers[1] = 0.0
    centers[2] = 3.0
    profile = _mean_density_profile(defect.base, [1.0, 2.0, 4.0, 8.0], centers)
    if profile[0] > 0.0 and profile[-1] > 0.25 * profile[0]:
        raise ValueError(
            "defect fails the localization spot-check: ball-mean of |b| "
            f"does not decay with radius ({profile})")
    combined = TensorField(base.n, base.dim, base.base, epsilon=epsilon,
                           defect=defect.base)
    margin = combined.observed_margin()
    if margin <= 0.0:
        raise EllipticityError(
            f"base plus defect loses ellipticity: observed margin {margin:.3e}")
    return combined


class HomogenizedTensor:
    """A constant effective diffusion tensor; it answers ``evaluate`` as a
    :class:`TensorField` does, so it assembles directly."""

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise ValueError(f"expected shape (n,n,N,N), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("effective tensor has non-finite entries")
        self.values = arr
        self.n = arr.shape[0]
        self.dim = arr.shape[2]
        self.margin = float(_quadratic_form_margin(arr[None, ...])[0])
        if self.margin <= 0.0:
            raise ValueError(
                f"effective tensor fails the ellipticity condition "
                f"(margin {self.margin:.3e}); the cell mesh is likely "
                f"under-resolved")

    def evaluate(self, points):
        """The tensor at every point, shape (m, n, n, N, N)."""
        m = len(np.atleast_2d(points))
        return np.broadcast_to(self.values, (m,) + self.values.shape).copy()

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "N": self.dim,
                           "values": self.values.tolist()})
