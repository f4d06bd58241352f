"""Norms and convergence diagnostics.

The W^{1,2} norm is exact for P1 fields: it is the Gram form (consistent
mass matrix plus Laplacian) of the space's hats, built once per space and
applied to each component's nodal values.  Gradient L^p norms are exact
per cell.  Dual-space norms are reported elsewhere as Euclidean norms of
load vectors, with no equivalence claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import HomogenizedTensor, TensorField
from .fem import (DiscreteField, FemSpace, assemble_diffusion,
                  assemble_divergence_load, solve_linear)

__all__ = [
    "linf_norm",
    "w1p_norm",
    "probe_load",
    "h_convergence_probe",
    "meyers_probe",
    "fit_rate",
    "HConvergenceRow",
    "MeyersTable",
]

# relative growth of a gradient-norm column that meyers_probe still counts
# as bounded
MEYERS_SLACK = 0.05
# points whose sine-mode factors the linear probe gathers at once
_GATHER_CHUNK = 4096


def linf_norm(u: DiscreteField) -> float:
    """Sum over components of the max absolute nodal value (exact for P1)."""
    return float(np.abs(u.nodal_matrix()).max(axis=0).sum())


def w1p_norm(u: DiscreteField) -> float:
    """(sum_a int |u^a|^2 + sum_i |d_i u^a|^2)^(1/2), the W^{1,2} norm.

    Exact for P1 fields: the space's Gram matrix (consistent mass plus
    Laplacian) is applied to each component's nodal values.
    """
    nodal = u.nodal_matrix()
    return float(np.sqrt(np.sum(nodal * (u.space.gram_matrix @ nodal))))


def gradient_lp_norm(u: DiscreteField, p: float) -> float:
    """(sum_a,i int |d_i u^a|^p)^(1/p), exact for P1."""
    space = u.space
    return _lp_norm(space.mesh.cell_measures,
                    space.gradients_on_cells(u.values), p)


def _lp_norm(cell_measures: np.ndarray, grads: np.ndarray, p: float) -> float:
    """The gradient L^p norm from per-cell gradients, shape (cells, n, N)."""
    total = np.einsum("c,cad->", cell_measures, np.abs(grads) ** p)
    return float(total ** (1.0 / p))


def fit_rate(points) -> tuple[float, float]:
    """Least-squares slope and intercept of log(error) against log(eps)."""
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < 2:
        raise ValueError("rate fit needs at least two points")
    if any(e <= 0 or v <= 0 for e, v in pts):
        raise ValueError("rate fit needs positive scales and errors")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


# --------------------------------------------------------------------------
# linear convergence probes


def _harmonics(s1: np.ndarray, c1: np.ndarray, modes: int):
    """``sin(k t)`` and ``cos(k t)`` for ``1 <= k <= modes``, one k at a
    time, from ``s1 = sin t`` and ``c1 = cos t`` by angle addition."""
    s, c = s1, c1
    for k in range(1, modes + 1):
        if k > 1:
            s, c = s * c1 + c * s1, c * c1 - s * s1
        yield k, s, c


def _pairing(weighted: np.ndarray, test: np.ndarray) -> float:
    """``sum_a |sum_p weighted[a, p] test[p]|``, an einsum sum over the
    contiguous rows, so in the same order on any thread count."""
    return abs(np.einsum("ap,p->a", weighted, test)).sum()


def _sine_pairings(pts: np.ndarray, modes: int, wdu: np.ndarray,
                   wdflux: np.ndarray):
    """The pairings of ``wdu`` (components, points) with the values, and of
    ``wdflux`` (components, (point, direction)) with the gradients, at
    ``pts`` (points, dim) of each tensor-product sine ``prod_i sin(k_i pi
    x_i)``, ``1 <= k_i <= modes``, in that order; two lists.

    Each axis tabulates ``sin(k pi x)`` and ``cos(k pi x)`` over its
    distinct coordinates only: one sine and one cosine each, every higher
    wave number by angle addition.  A mode gathers its factors from the
    tables, ``_GATHER_CHUNK`` points at a time, and multiplies them into
    one value and one gradient array that every mode reuses, as products
    over every point would, so the pairings are those of point arrays,
    bit for bit.  Beside ``wdu`` and ``wdflux`` the loop holds those
    arrays, ``1 + dim`` floats per point, and one int32 index per point
    and axis.
    """
    count, dim = pts.shape
    at, tables = [], []
    for x in pts.T:
        coords = np.unique(x)
        # int32, widened a chunk at a time for every gather of the chunk
        at.append(np.searchsorted(coords, x).astype(np.int32))
        tables.append(list(_harmonics(np.sin(np.pi * coords),
                                      np.cos(np.pi * coords), modes)))
    chunks = [slice(start, start + _GATHER_CHUNK)
              for start in range(0, count, _GATHER_CHUNK)]
    val, grad = np.empty(count), np.empty((count, dim))
    first, second = np.empty(_GATHER_CHUNK), np.empty(_GATHER_CHUNK)
    pairings, flux_pairings = [], []
    for k, s1, c1 in tables[0]:
        d1 = k * np.pi * c1
        # in 1D each mode of the first axis is a mode, with no second factor
        for l, s2, c2 in tables[1] if dim == 2 else [(0, None, None)]:
            t1 = l * np.pi * s1
            for chunk in chunks:
                x = at[0][chunk].astype(np.intp)
                if dim == 1:
                    np.take(s1, x, out=val[chunk])
                    np.take(d1, x, out=grad[chunk, 0])
                    continue
                y = at[1][chunk].astype(np.intp)
                f, g = first[:len(x)], second[:len(x)]
                np.take(s2, y, out=g)
                np.multiply(np.take(s1, x, out=f), g, out=val[chunk])
                np.multiply(np.take(d1, x, out=f), g, out=grad[chunk, 0])
                np.multiply(np.take(t1, x, out=f), np.take(c2, y, out=g),
                            out=grad[chunk, 1])
            pairings.append(_pairing(wdu, val))
            flux_pairings.append(_pairing(wdflux, grad.ravel()))
    return pairings, flux_pairings


@dataclass
class HConvergenceRow:
    eps: float
    h: float
    n_cells: int
    pairings: np.ndarray        # per test function
    flux_pairings: np.ndarray   # per test function
    linf_diff: float
    grad_l2_diff: float
    # what meyers_probe reads of the A_eps solve: its per-cell gradients,
    # shape (cells, n, N), and the cell measures
    grad_eps: np.ndarray
    cell_measures: np.ndarray


def probe_load(space: FemSpace) -> np.ndarray:
    """Free-dof load of ``D g`` for the probe flux ``g_i^a(x) = x_i``, at
    the quadrature points of ``space``, which uses the 3-point rule."""
    pts = space.quad_points[:, :, None, :]  # (cells, points, 1, N)
    return assemble_divergence_load(space, np.repeat(pts, space.n, axis=2))


def h_convergence_probe(tensor_eps: TensorField, ahat: HomogenizedTensor,
                        u_hat: DiscreteField, load: np.ndarray, modes: int,
                        near=None) -> HConvergenceRow:
    """Weak-convergence diagnostics of one family member toward its limit.

    ``u_hat`` solves ``Ahat uhat + D g = 0`` on a space under the 3-point
    rule, whose free-dof load of ``D g`` is ``load`` (:func:`probe_load`).
    On the same space the probe solves ``A_eps u + D g = 0``, refined over
    ``near`` when given (see :func:`~homfem.fem.solve_linear`), and reports
    at the scale ``tensor_eps.epsilon`` the smeared differences ``|int
    (u_eps - uhat) psi|`` and ``|int (flux_eps - fluxhat) . grad psi|`` per
    test function ``psi = prod_i sin(k_i pi x_i)``, ``1 <= k_i <= modes``,
    the max-norm distance and the gradient L2 distance.  The row keeps the
    gradients of ``u_eps``, from which :func:`meyers_probe` reads its norms.

    Its transients are bounded by one quadrature point's tensor values:
    ``A_eps`` is integrated one quadrature point at a time (see
    :func:`~homfem.fem.assemble_diffusion`), and so are the flux
    differences, and the pairings hold beside the weighted differences
    only one sine mode's values and gradients (:func:`_sine_pairings`).
    """
    space = u_hat.space
    dim, n = space.mesh.dim, space.n
    u_eps = solve_linear(assemble_diffusion(space, tensor_eps), -load,
                         near=near)
    grad_eps = space.gradients_on_cells(u_eps.values)

    # quadrature-weighted differences, one quadrature point at a time, so
    # that each test function's pairings are two sums over columns (point)
    # and (point, direction) per component.  The flux at a point sums its
    # n * dim trial terms (b, j) one array product at a time, in that
    # order, straight into its columns; the effective flux is subtracted
    # and the weight applied once every point's flux is in.  The pairings
    # are einsum sums over contiguous rows.  None of it is a BLAS call, so
    # it all sums in the same order on any thread count
    nc, nq = space.quad_points.shape[:2]
    weights = space.quad_weights
    wdflux = np.zeros((n, nc, nq, dim))
    for q in range(nq):
        a_q = tensor_eps.evaluate(space.quad_points[:, q])  # (c, a, b, i, j)
        flux = wdflux[:, :, q].swapaxes(0, 1)  # (c, a, i), a view
        for b in range(n):
            for j in range(dim):
                flux += a_q[:, :, b, :, j] * grad_eps[:, b, j, None, None]
        del a_q  # the next point's values would be held beside it
    fluxhat = np.einsum("abij,cbj->cai", ahat.values,
                        space.gradients_on_cells(u_hat.values))
    for q in range(nq):
        flux = wdflux[:, :, q].swapaxes(0, 1)
        flux -= fluxhat
        flux *= weights[:, q, None, None]
    del fluxhat  # it would be held beside the pairings
    wdu = space.values_at_quadrature(u_eps.values - u_hat.values)
    wdu *= weights[:, :, None]
    wdu = wdu.reshape(nc * nq, n).T.copy()
    pairings, flux_pairings = _sine_pairings(
        space.quad_points.reshape(nc * nq, dim), modes, wdu,
        wdflux.reshape(n, nc * nq * dim))
    del wdu, wdflux  # they would be held beside the distances' gradients
    diff = u_eps - u_hat
    return HConvergenceRow(
        eps=tensor_eps.epsilon, h=space.mesh.h, n_cells=space.mesh.num_cells,
        pairings=np.array(pairings), flux_pairings=np.array(flux_pairings),
        linf_diff=linf_norm(diff), grad_l2_diff=gradient_lp_norm(diff, 2.0),
        grad_eps=grad_eps, cell_measures=space.mesh.cell_measures)


@dataclass
class MeyersTable:
    """Gradient L^p norms of the linear solves across the scale sweep."""

    eps_list: list
    p_grid: list
    norms: np.ndarray           # (len(eps_list), len(p_grid))
    observed_range: float       # largest stable p
    stable: np.ndarray          # per-p boundedness flags


def meyers_probe(rows: list[HConvergenceRow], p_grid) -> MeyersTable:
    """Track gradient L^p norms of the rows' ``u_eps`` across the sweep.

    ``rows`` come from :func:`h_convergence_probe`, so both probes share one
    linear solve per scale.  A column counts as stable when the norm
    sequence never grows by more than ``MEYERS_SLACK`` relative to its running
    minimum; the observed range is the largest stable p.  This is a
    bounded-sequence diagnostic, not an attempt to compute the critical
    integrability exponent.
    """
    p_grid = [float(p) for p in p_grid]
    if any(p < 2 or p > 4 for p in p_grid):
        raise ValueError("p grid must lie inside [2, 4]")
    norms = np.empty((len(rows), len(p_grid)))
    for r, row in enumerate(rows):
        for c, p in enumerate(p_grid):
            norms[r, c] = _lp_norm(row.cell_measures, row.grad_eps, p)
    stable = np.array([
        bool(np.all(norms[1:, c] <= np.minimum.accumulate(norms[:, c])[:-1]
                    * (1.0 + MEYERS_SLACK)))
        for c in range(len(p_grid))])
    observed = max((p for p, ok in zip(p_grid, stable) if ok), default=0.0)
    return MeyersTable(eps_list=[row.eps for row in rows], p_grid=p_grid,
                       norms=norms, observed_range=observed, stable=stable)
