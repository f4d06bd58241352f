"""Periodic cell problems, correctors and the effective diffusion tensor.

For a Z^N-periodic base tensor, each of the n*N cell problems asks for a
zero-mean periodic corrector whose corrected flux is divergence free; the
effective tensor is the cell average of the corrected flux.
:func:`solve_cell_problems` averages each corrected flux as its corrector is
solved and returns the tensor with the correctors, as ``CorrectorSet.ahat``.
In one space dimension :func:`homogenized_tensor_1d` bypasses the correctors
entirely: the effective matrix is the inverse of the cell average of the
inverse coefficient matrix.

The singular constant mode of the periodic systems is removed by pinning one
vertex, a constrained vertex of the cell space: the pinned matrix and loads
are assembled on its free dofs and factored like any other, and each
solution answers to :func:`~homfem.fem._solved`'s backward error before
its component means are subtracted, as a constant is in the kernel of the
periodic operator, not of the pinned one.  Dropping the pinned row hides
nothing: its residual is minus the sum of the others.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coeff import (HomogenizedTensor, PiecewiseTensor, TensorField,
                    sample_grid)
from .fem import (DiscreteField, FemSpace, _solved, assemble_diffusion,
                  assemble_divergence_load, lu_factor)
from .mesh import Mesh

__all__ = [
    "CorrectorSet",
    "solve_cell_problems",
    "homogenized_tensor_1d",
]

MEAN_TOL = 1e-10
# midpoint subintervals of the 1D inverse average for non-piecewise tables
QUADRATURE_1D = 4096


@dataclass
class CorrectorSet:
    """Correctors indexed by (gradient direction j, trial component beta).

    Attributes
    ----------
    space : FemSpace
        Periodic space the correctors live on, with the pinned vertex (the
        first independent one, owning dofs ``0..n-1``) constrained.
    fields : list of list of DiscreteField
        ``fields[j][beta]`` is the n-component corrector for direction j and
        component beta, centered: its values at the pinned vertex are the
        centering shift, not zero, so ``free()`` does not solve the pinned
        system.
    means : ndarray, shape (N, n, n)
        Cell means of every corrector component after centering (certificate;
        all below the mean tolerance).
    ahat : HomogenizedTensor
        Cell average of the corrected fluxes, entrywise.
    """

    space: FemSpace
    fields: list
    means: np.ndarray
    ahat: HomogenizedTensor

    @property
    def max_abs(self) -> float:
        return max(float(np.max(np.abs(f.values)))
                   for row in self.fields for f in row)


def _component_means(space: FemSpace, values: np.ndarray) -> np.ndarray:
    """Exact cell means of each component of a P1 field (unit cell volume)."""
    cellwise = values[space.cell_dofs]                # (nc, nv, n)
    avg = cellwise.mean(axis=1)                       # linear: mean of vertices
    return np.einsum("c,ca->a", space.mesh.cell_measures, avg)


def solve_cell_problems(base: TensorField, cellmesh: Mesh) -> CorrectorSet:
    """Solve the n*N periodic cell problems and average the corrected flux.

    The mesh must be periodic; the tensor is evaluated unscaled on the unit
    cell.  Every returned corrector solved its pinned system to a normwise
    backward error of at most 1e-10, or LinearSolveError is raised, and has
    component means at most 1e-10.  Raises if the effective tensor loses
    the ellipticity margin, which signals an under-resolved cell mesh.
    """
    if not cellmesh.is_periodic:
        raise ValueError("cell problems need a periodic mesh")
    if base.epsilon is not None:
        raise ValueError("cell problems use the unscaled base tensor")
    if base.defect is not None:
        raise ValueError("cell problems use the defect-free base; strip the "
                         "defect first (the averaged formula never sees it)")
    base.require_elliptic()

    n, dim = base.n, base.dim
    # pin the first independent vertex, which owns dofs 0..n-1, to remove
    # the constant kernel
    space = FemSpace(replace(cellmesh, boundary=np.array([0])), n)
    A = assemble_diffusion(space, base)
    lu = lu_factor(A.matrix)

    nc, nq = space.quad_points.shape[:2]
    a_qp = base.evaluate(space.quad_points.reshape(nc * nq, dim))
    a_qp = a_qp.reshape(nc, nq, n, n, dim, dim)

    ahat = np.einsum("cq,cqabij->abij", space.quad_weights, a_qp)
    fields, means = [], np.empty((dim, n, n))
    for j in range(dim):
        row = []
        for beta in range(n):
            rhs = -assemble_divergence_load(space, a_qp[:, :, :, beta, :, j])
            v = lu.solve(rhs)
            _solved(A.matrix, v, rhs, "cell-problem")
            v = space.free_to_full(v).reshape(-1, n)
            v -= _component_means(space, v.ravel())[None, :]
            v = v.ravel()
            means[j, beta] = _component_means(space, v)
            row.append(DiscreteField(space, v))
            # flux correction: mean of a_{ik}^{ag} d_k v^g
            ahat[:, beta, :, j] += np.einsum(
                "cq,cqagik,cgk->ai", space.quad_weights, a_qp,
                space.gradients_on_cells(v))
        fields.append(row)

    # written so that NaN fails it
    if not np.max(np.abs(means)) <= MEAN_TOL:
        raise RuntimeError(f"corrector means exceed {MEAN_TOL}")
    return CorrectorSet(space, fields, means, HomogenizedTensor(ahat))


def homogenized_tensor_1d(base: TensorField) -> HomogenizedTensor:
    """One-dimensional shortcut: invert the cell average of the inverse.

    For piecewise-constant tables the average is computed exactly from the
    table; otherwise composite midpoint quadrature with ``QUADRATURE_1D``
    subintervals is used.  Fails if the coefficient matrix is singular at a
    quadrature point.
    """
    if base.dim != 1:
        raise ValueError("the inverse-average formula needs N == 1")
    if base.epsilon is not None:
        raise ValueError("pass the unscaled base tensor")
    if base.defect is not None:
        raise ValueError("pass the defect-free base; the inverse-average "
                         "formula never sees the defect")
    n = base.n
    if isinstance(base.base, PiecewiseTensor):
        k = base.base.cells.shape[0]
        pts = (np.arange(k)[:, None] + 0.5) / k
        weights = np.full(k, 1.0 / k)
    else:
        pts = sample_grid(1, QUADRATURE_1D)
        weights = np.full(QUADRATURE_1D, 1.0 / QUADRATURE_1D)
    mats = base.evaluate(pts)[:, :, :, 0, 0]  # (m, n, n)
    try:
        invs = np.linalg.inv(mats)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"coefficient matrix singular on the cell: {exc}") from exc
    mean_inv = np.einsum("m,mab->ab", weights, invs)
    ahat = np.linalg.inv(mean_inv)
    return HomogenizedTensor(ahat.reshape(n, n, 1, 1))
