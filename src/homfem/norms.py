"""Norms and convergence diagnostics.

The sup-type norms here are discrete stand-ins computed from nodal data and
cell quadrature and are labeled as such: the ball-seminorm sup runs over mesh
vertices and dyadic radii only, and dual-space norms are reported elsewhere
as Euclidean norms of load vectors, with no equivalence claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeff import HomogenizedTensor, TensorField
from .fem import (DiscreteField, FemSpace, assemble_diffusion,
                  assemble_divergence_load, quadrature_rule, solve_linear)
from .mesh import build_interval_mesh, build_unit_square_mesh

__all__ = [
    "linf_norm",
    "w1p_norm",
    "morrey_seminorm",
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


def _value_quadrature(space: FemSpace):
    """3-point rule data for integrating powers of field values."""
    rule = quadrature_rule(space.mesh.dim, "3point")
    weights = rule.weights[None, :] * space.mesh.cell_measures[:, None]
    return rule.barycentric, weights


def w1p_norm(u: DiscreteField, p: float = 2.0) -> float:
    """(sum_a int |u^a|^p + sum_i |d_i u^a|^p)^(1/p).

    Gradients are exact per cell for P1 fields; the value part uses a 3-point
    rule per cell regardless of the space's assembly quadrature.
    """
    if p < 2:
        raise ValueError("w1p norms need p >= 2")
    space = u.space
    bary, weights = _value_quadrature(space)
    cellwise = u.values[space.cell_dofs]                      # (nc, nv, n)
    vals = np.einsum("qv,cva->cqa", bary, cellwise)           # (nc, nq, n)
    value_part = np.einsum("cq,cqa->", weights, np.abs(vals) ** p)
    grads = space.gradients_on_cells(u.values)                # (nc, n, N)
    grad_part = np.einsum("c,cad->", space.mesh.cell_measures,
                          np.abs(grads) ** p)
    return float((value_part + grad_part) ** (1.0 / p))


def gradient_lp_norm(u: DiscreteField, p: float) -> float:
    """(sum_a,i int |d_i u^a|^p)^(1/p), exact for P1."""
    space = u.space
    grads = space.gradients_on_cells(u.values)
    total = np.einsum("c,cad->", space.mesh.cell_measures, np.abs(grads) ** p)
    return float(total ** (1.0 / p))


def morrey_seminorm(space: FemSpace, cell_values: np.ndarray, lam: float,
                    centers: np.ndarray | None = None,
                    radii=None, max_centers: int = 512) -> float:
    """Discrete ball seminorm sup_r r^(-lam/2) (int_{B(x,r)} |w|^2)^(1/2).

    ``cell_values`` holds one constant value row per cell (any trailing
    shape); cells belong to a ball when their centroid does.  The sup runs
    over mesh vertices (subsampled to ``max_centers``) and dyadic radii from
    1 down to twice the mesh size, so the result is a discrete proxy of the
    continuum sup.
    """
    mesh = space.mesh
    if lam < 0 or lam >= mesh.dim:
        raise ValueError("morrey exponent must lie in [0, N)")
    w = np.asarray(cell_values, dtype=float).reshape(mesh.num_cells, -1)
    cell_l2 = mesh.cell_measures * (w ** 2).sum(axis=1)
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    if centers is None:
        centers = mesh.vertices
    if len(centers) > max_centers:
        stride = int(np.ceil(len(centers) / max_centers))
        centers = centers[::stride]
    # the domain midpoint always probes, so the unit radius sees all of
    # the domain and lam = 0 reproduces the global L2 norm exactly
    centers = np.vstack([np.asarray(centers, dtype=float),
                         np.full((1, mesh.dim), 0.5)])
    if radii is None:
        rmin = 2.0 * mesh.h
        ks = int(np.floor(np.log2(1.0 / rmin))) if rmin < 1 else 0
        radii = [2.0 ** (-k) for k in range(ks + 1)]
    dists = np.linalg.norm(centroids[None, :, :] - np.asarray(centers)[:, None, :],
                           axis=2)
    best = 0.0
    for r in radii:
        mass = (dists < r) @ cell_l2
        best = max(best, float(np.sqrt(mass.max()) * r ** (-lam / 2.0)))
    return best


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
        du_q = du_q.reshape(nc, nq, n)
        a_eps = tensor_eps.evaluate(pts).reshape(nc, nq, n, n, dim, dim)
        grad_eps = space.gradients_on_cells(u_eps.values)
        grad_hat = space.gradients_on_cells(u_hat.values)
        flux_eps = np.einsum("cqabij,cbj->cqai", a_eps, grad_eps)
        flux_hat = np.einsum("abij,cbj->cai", ahat.values,
                             grad_hat)[:, None, :, :]
        dflux = flux_eps - flux_hat

        pairings, flux_pairings = [], []
        for _, val, grad in test_functions:
            psi = val(pts).reshape(nc, nq)
            dpsi = grad(pts).reshape(nc, nq, dim)
            pairings.append(abs(np.einsum("cq,cq,cqa->a", space.quad_weights,
                                          psi, du_q)).sum())
            flux_pairings.append(abs(np.einsum("cq,cqai,cqi->a",
                                               space.quad_weights, dflux,
                                               dpsi)).sum())
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
