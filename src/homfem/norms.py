"""Norms and convergence diagnostics.

The W^{1,2} norm is exact for P1 fields: it is the Gram form (consistent
mass matrix plus Laplacian) of the space's hats, built once per space and
applied to each component's nodal values.  Gradient L^p norms are exact
per cell.  Dual-space norms are reported elsewhere as Euclidean norms of
load vectors, with no equivalence claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeff import HomogenizedTensor, TensorField
from .fem import (DiscreteField, FemSpace, assemble_diffusion,
                  assemble_divergence_load, solve_linear)
from .mesh import build_interval_mesh, build_unit_square_mesh

__all__ = [
    "linf_norm",
    "w1p_norm",
    "h_convergence_probe",
    "meyers_probe",
    "fit_rate",
    "sinusoid_test_functions",
    "HConvergenceRow",
    "MeyersTable",
]

# relative growth of a gradient-norm column that meyers_probe still counts
# as bounded
MEYERS_SLACK = 0.05


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
    grads = space.gradients_on_cells(u.values)
    total = np.einsum("c,cad->", space.mesh.cell_measures, np.abs(grads) ** p)
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


def sinusoid_test_functions(dim: int, modes: int = 4):
    """Tensor-product sine test functions and their gradients."""
    out = []
    if dim == 1:
        for k in range(1, modes + 1):
            out.append((
                f"sin({k}*pi*x)",
                lambda pts, k=k: np.sin(k * np.pi * pts[:, 0]),
                lambda pts, k=k: (k * np.pi * np.cos(k * np.pi * pts[:, 0]))[:, None],
            ))
    else:
        for k in range(1, modes + 1):
            for l in range(1, modes + 1):
                def val(pts, k=k, l=l):
                    return (np.sin(k * np.pi * pts[:, 0])
                            * np.sin(l * np.pi * pts[:, 1]))

                def grad(pts, k=k, l=l):
                    s1 = np.sin(k * np.pi * pts[:, 0])
                    s2 = np.sin(l * np.pi * pts[:, 1])
                    c1 = np.cos(k * np.pi * pts[:, 0])
                    c2 = np.cos(l * np.pi * pts[:, 1])
                    return np.column_stack([k * np.pi * c1 * s2,
                                            l * np.pi * s1 * c2])

                out.append((f"sin({k}*pi*x)*sin({l}*pi*y)", val, grad))
    return out


@dataclass
class HConvergenceRow:
    eps: float
    h: float
    n_cells: int
    pairings: np.ndarray        # per test function
    flux_pairings: np.ndarray   # per test function
    linf_diff: float
    grad_l2_diff: float
    u_eps: DiscreteField        # the A_eps solve, reused by meyers_probe


def _probe_space(dim: int, eps: float, cells_per_eps: int, n: int) -> FemSpace:
    cells = max(4, int(round(cells_per_eps / eps)))
    mesh = (build_interval_mesh(cells) if dim == 1
            else build_unit_square_mesh(cells))
    return FemSpace(mesh, n, quadrature="3point")


def h_convergence_probe(tensor_family: TensorField, ahat: HomogenizedTensor,
                        flux_fn, eps_list, test_functions=None,
                        cells_per_eps: int = 8) -> list[HConvergenceRow]:
    """Weak-convergence diagnostics of a coefficient family toward its limit.

    For each scale the linear problems ``A_eps u + D g = 0`` and
    ``Ahat uhat + D g = 0`` are solved on a shared mesh (resolved at
    ``cells_per_eps`` cells per oscillation) and the rows report the smeared
    differences ``|int (u_eps - uhat) psi|`` and
    ``|int (flux_eps - fluxhat) . grad psi|`` per test function, together
    with the max-norm distance and the gradient L2 distance.  Each row keeps
    its ``u_eps`` solve, from which :func:`meyers_probe` reads its norms.

    ``flux_fn`` maps points (m, N) to load flux values (m, n, N).
    """
    dim, n = tensor_family.dim, tensor_family.n
    if test_functions is None:
        test_functions = sinusoid_test_functions(dim)
    rows = []
    for eps in eps_list:
        space = _probe_space(dim, eps, cells_per_eps, n)
        nc, nq = space.quad_points.shape[:2]
        pts = space.quad_points.reshape(nc * nq, dim)
        g = np.asarray(flux_fn(pts), dtype=float).reshape(nc, nq, n, dim)
        load = assemble_divergence_load(space, g)

        tensor_eps = tensor_family.with_epsilon(eps)
        u_eps = solve_linear(assemble_diffusion(space, tensor_eps), -load)
        u_hat = solve_linear(assemble_diffusion(space, ahat.as_tensor_field()),
                             -load)

        du_q = space.values_at_quadrature(u_eps.values - u_hat.values)
        a_eps = tensor_eps.evaluate(pts).reshape(nc, nq, n, n, dim, dim)
        grad_eps = space.gradients_on_cells(u_eps.values)
        grad_hat = space.gradients_on_cells(u_hat.values)
        flux_eps = np.einsum("cqabij,cbj->cqai", a_eps, grad_eps)
        flux_hat = np.einsum("abij,cbj->cai", ahat.values,
                             grad_hat)[:, None, :, :]
        dflux = flux_eps - flux_hat

        # quadrature-weighted differences, so that each test function's
        # pairings are two matvecs: rows (point) and (point, direction)
        weights = space.quad_weights[:, :, None]
        wdu = (weights * du_q).reshape(nc * nq, n)
        wdflux = (weights[..., None] * dflux).transpose(0, 1, 3, 2).reshape(
            nc * nq * dim, n)
        pairings, flux_pairings = [], []
        for _, val, grad in test_functions:
            pairings.append(abs(val(pts) @ wdu).sum())
            flux_pairings.append(abs(grad(pts).ravel() @ wdflux).sum())
        diff = u_eps - u_hat
        rows.append(HConvergenceRow(
            eps=eps, h=space.mesh.h, n_cells=space.mesh.num_cells,
            pairings=np.array(pairings), flux_pairings=np.array(flux_pairings),
            linf_diff=linf_norm(diff), grad_l2_diff=gradient_lp_norm(diff, 2.0),
            u_eps=u_eps))
    return rows


@dataclass
class MeyersTable:
    """Gradient L^p norms of the linear solves across the scale sweep."""

    eps_list: list
    p_grid: list
    norms: np.ndarray           # (len(eps_list), len(p_grid))
    observed_range: float       # largest stable p
    stable: np.ndarray = field(default=None)  # per-p boundedness flags


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
            norms[r, c] = gradient_lp_norm(row.u_eps, p)
    stable = np.array([
        bool(np.all(norms[1:, c] <= np.minimum.accumulate(norms[:, c])[:-1]
                    * (1.0 + MEYERS_SLACK)))
        for c in range(len(p_grid))])
    observed = max((p for p, ok in zip(p_grid, stable) if ok), default=0.0)
    return MeyersTable(eps_list=[row.eps for row in rows], p_grid=p_grid,
                       norms=norms, observed_range=observed, stable=stable)
