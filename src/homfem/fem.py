"""P1 finite elements for vector-valued fields on the toolkit meshes.

The discrete unknowns are nodal values of continuous piecewise-linear fields
with ``n`` components.  Degrees of freedom are laid out per independent
vertex (periodic slaves share their master's dofs), component fastest.
Dirichlet constraints are handled by free-dof elimination, never by penalty.

Every matrix on a space has the same sparsity pattern: the vertex adjacency
of the mesh restricted to the free vertices, with an ``n x n`` block per
entry.  ``FemSpace.vertex_pattern`` builds it once, with the position in it
of each (cell, test vertex, trial vertex) pair; :func:`assemble_diffusion`
and :func:`assemble_jacobian_coupling` sum their local blocks into it by
``np.bincount`` and drop the entries that cancel to zero.

Matrices cross the module as :class:`SparseOperator` (the matrix with its
space) and loads as plain free-dof arrays.  Sign convention used throughout
the toolkit: divergence-form problems are posed as ``A u + b = 0`` where
``A`` comes from :func:`assemble_diffusion` and ``b`` from
:func:`assemble_divergence_load`; :func:`solve_linear` itself solves the
plain system ``A u = rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

__all__ = [
    "QuadratureRule",
    "FemSpace",
    "SparseOperator",
    "DiscreteField",
    "LinearSolveError",
    "assemble_diffusion",
    "assemble_divergence_load",
    "assemble_jacobian_coupling",
    "solve_linear",
]


class LinearSolveError(RuntimeError):
    """Raised when a sparse direct solve fails or is numerically rank-deficient."""


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric quadrature points and unit-measure weights for one cell."""

    name: str
    barycentric: np.ndarray  # (nq, nverts)
    weights: np.ndarray      # (nq,), summing to 1


def quadrature_rule(dim: int, kind: str = "midpoint") -> QuadratureRule:
    """The midpoint rule (default) or the 3-point rule for ``dim`` in {1, 2}."""
    if kind == "midpoint":
        nv = dim + 1
        return QuadratureRule("midpoint", np.full((1, nv), 1.0 / nv),
                              np.array([1.0]))
    if kind == "3point":
        if dim == 1:
            s = np.sqrt(3.0 / 5.0) / 2.0
            t = np.array([0.5 - s, 0.5, 0.5 + s])
            bary = np.column_stack([1.0 - t, t])
            w = np.array([5.0, 8.0, 5.0]) / 18.0
        else:
            bary = np.array([[2 / 3, 1 / 6, 1 / 6],
                             [1 / 6, 2 / 3, 1 / 6],
                             [1 / 6, 1 / 6, 2 / 3]])
            w = np.full(3, 1.0 / 3.0)
        return QuadratureRule("3point", bary, w)
    raise ValueError(f"unknown quadrature kind {kind!r}")


class VertexPattern(NamedTuple):
    """Block CSR pattern over the free independent vertices of a space.

    ``slot[(c * nv + w) * nv + v]`` is the position in ``indices`` of the
    block coupling cell c's test vertex w to its trial vertex v, or
    ``len(indices)`` when either vertex is constrained.
    """

    indices: np.ndarray  # int32, block column of each stored block
    indptr: np.ndarray   # int32, block row starts
    slot: np.ndarray     # int32, (cells * nv * nv,)


class FemSpace:
    """P1 space of n-component fields on a mesh.

    Parameters
    ----------
    mesh : Mesh
    n : int
        Number of field components.
    quadrature : str
        "midpoint" (default) or "3point".
    constrain_boundary : bool
        Impose homogeneous Dirichlet values on the mesh boundary markers.
    """

    def __init__(self, mesh: Mesh, n: int, quadrature: str = "midpoint",
                 constrain_boundary: bool = True):
        if n < 1:
            raise ValueError("system dimension must be at least 1")
        self.mesh = mesh
        self.n = n
        self.quad = quadrature_rule(mesh.dim, quadrature)

        masters = mesh.master_vertices()
        indep, inverse = np.unique(masters, return_inverse=True)
        self.num_indep_vertices = len(indep)
        self.num_dofs = n * self.num_indep_vertices
        # dof index of (vertex, component): interleaved, component fastest
        self._vertex_slot = inverse
        self.indep_vertices = indep

        mask = np.zeros(self.num_dofs, dtype=bool)
        for v in (mesh.boundary if constrain_boundary else ()):
            slot = self._vertex_slot[v]
            mask[slot * n:(slot + 1) * n] = True
        self.constrained_mask = mask
        self.free_dofs = np.nonzero(~mask)[0]
        self.num_free = len(self.free_dofs)

        # geometry caches: per-cell hat gradients, quadrature points,
        # per-(cell, vertex, component) dof indices
        self.cell_dofs = (self._vertex_slot[mesh.cells][:, :, None] * n
                          + np.arange(n)[None, None, :])
        self.grads = _hat_gradients(mesh)
        pts = mesh.vertices[mesh.cells]  # (nc, nv, dim)
        self.quad_points = np.einsum("qv,cvd->cqd", self.quad.barycentric, pts)
        self.quad_weights = (self.quad.weights[None, :]
                             * mesh.cell_measures[:, None])  # (nc, nq)

    # -- vector plumbing -------------------------------------------------

    def dof_index(self, vertex: int, component: int = 0) -> int:
        return int(self._vertex_slot[vertex]) * self.n + component

    def full_to_free(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values)[self.free_dofs]

    def free_to_full(self, free_values: np.ndarray) -> np.ndarray:
        full = np.zeros(self.num_dofs)
        full[self.free_dofs] = free_values
        return full

    def zero_field(self) -> "DiscreteField":
        return DiscreteField(self, np.zeros(self.num_dofs))

    def field_from_free(self, free_values: np.ndarray) -> "DiscreteField":
        return DiscreteField(self, self.free_to_full(free_values))

    # -- pointwise data for nonlinear terms -------------------------------

    def values_at_quadrature(self, values: np.ndarray) -> np.ndarray:
        """Field values at quadrature points, shape (nc, nq, n)."""
        cellwise = values[self.cell_dofs]  # (nc, nv, n)
        return np.einsum("qv,cva->cqa", self.quad.barycentric, cellwise)

    def gradients_on_cells(self, values: np.ndarray) -> np.ndarray:
        """Per-cell constant gradients, shape (nc, n, dim)."""
        nc, _, dim = self.grads.shape
        per_vertex = values.reshape(self.num_indep_vertices, self.n)
        return (self.gradient_matrix @ per_vertex).reshape(
            nc, dim, self.n).transpose(0, 2, 1)

    # -- per-space operators on one scalar component ----------------------

    @cached_property
    def gradient_matrix(self) -> sp.csr_matrix:
        """Cell gradients of a scalar P1 field, (cells*dim) x vertices.

        Row ``c*dim + i`` holds d_i of cell c's hats at their independent
        vertices, so it has exactly dim + 1 entries.  A component-fastest
        field ``values.reshape(vertices, n)`` maps to its gradients
        component by component.
        """
        nc, nv, dim = self.grads.shape
        slots = self._vertex_slot[self.mesh.cells]                # (nc, nv)
        indices = np.broadcast_to(slots[:, None, :], (nc, dim, nv)).ravel()
        data = self.grads.transpose(0, 2, 1).ravel()
        indptr = np.arange(0, data.size + 1, nv)
        return sp.csr_matrix((data, indices, indptr),
                             shape=(nc * dim, self.num_indep_vertices))

    @cached_property
    def gram_matrix(self) -> sp.csr_matrix:
        """W^{1,2} Gram matrix of the scalar hats: mass plus Laplacian.

        The consistent P1 mass matrix has the cell entries
        |T| (1 + delta_vw) / ((dim+1)(dim+2)); the Laplacian is
        G^T diag(|T|) G for G = :attr:`gradient_matrix`.
        """
        nc, nv, dim = self.grads.shape
        measures = self.mesh.cell_measures
        slots = self._vertex_slot[self.mesh.cells]
        local = ((1.0 + np.eye(nv))[None, :, :] * measures[:, None, None]
                 / (nv * (nv + 1)))
        rows = np.broadcast_to(slots[:, :, None], local.shape).ravel()
        cols = np.broadcast_to(slots[:, None, :], local.shape).ravel()
        size = self.num_indep_vertices
        mass = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size))
        G = self.gradient_matrix
        stiffness = G.T @ sp.diags(np.repeat(measures, dim)) @ G
        return (mass + stiffness).tocsr()

    @cached_property
    def vertex_pattern(self) -> VertexPattern:
        """The pattern every matrix on the space is assembled into.

        Constraints must remove whole vertices (all n components), so that
        the free dofs are the free vertices' blocks, component fastest.
        """
        n = self.n
        by_vertex = self.constrained_mask.reshape(-1, n)
        constrained = by_vertex[:, 0]
        if not (by_vertex == constrained[:, None]).all():
            raise ValueError("constraints must remove every component of a "
                             "vertex")
        num_free = self.num_free // n
        free_index = np.cumsum(~constrained) - 1
        free_index[constrained] = -1
        cells = free_index[self._vertex_slot[self.mesh.cells]]   # (nc, nv)
        nc, nv = cells.shape
        rows = np.broadcast_to(cells[:, :, None], (nc, nv, nv)).ravel()
        cols = np.broadcast_to(cells[:, None, :], (nc, nv, nv)).ravel()
        kept = (rows >= 0) & (cols >= 0)
        keys, inverse = np.unique(rows[kept] * num_free + cols[kept],
                                  return_inverse=True)
        slot = np.full(rows.size, keys.size, dtype=np.int32)
        slot[kept] = inverse
        block_rows, indices = np.divmod(keys, num_free)
        indptr = np.zeros(num_free + 1, dtype=np.int32)
        np.cumsum(np.bincount(block_rows, minlength=num_free), out=indptr[1:])
        return VertexPattern(indices.astype(np.int32), indptr, slot)


def _hat_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the local hat functions, shape (nc, nverts, dim)."""
    pts = mesh.vertices[mesh.cells]
    nc = mesh.num_cells
    if mesh.dim == 1:
        h = pts[:, 1, 0] - pts[:, 0, 0]
        g = np.empty((nc, 2, 1))
        g[:, 0, 0] = -1.0 / h
        g[:, 1, 0] = 1.0 / h
        return g
    # rows of the inverse Jacobian give the gradients of the two non-apex
    # hats; the apex hat closes the partition of unity
    e1 = pts[:, 1, :] - pts[:, 0, :]
    e2 = pts[:, 2, :] - pts[:, 0, :]
    det = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None]
    g1 = np.column_stack([e2[:, 1], -e2[:, 0]]) / det
    g2 = np.column_stack([-e1[:, 1], e1[:, 0]]) / det
    g = np.empty((nc, 3, 2))
    g[:, 1, :] = g1
    g[:, 2, :] = g2
    g[:, 0, :] = -g1 - g2
    return g


@dataclass
class SparseOperator:
    """A square sparse matrix over the free dofs of a space."""

    space: FemSpace
    matrix: sp.csr_matrix

    def __post_init__(self):
        nf = self.space.num_free
        if self.matrix.shape != (nf, nf):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{nf} free dofs")

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if other.space is not self.space:
            raise ValueError("operators live on different spaces")
        return SparseOperator(self.space, (self.matrix + other.matrix).tocsr())


class DiscreteField:
    """Nodal coefficients of a P1 field (constrained entries included)."""

    def __init__(self, space: FemSpace, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (space.num_dofs,):
            raise ValueError(
                f"expected {space.num_dofs} nodal values, got {values.shape}")
        self.space = space
        self.values = values

    def copy(self) -> "DiscreteField":
        return DiscreteField(self.space, self.values.copy())

    def free(self) -> np.ndarray:
        return self.space.full_to_free(self.values)

    def nodal_matrix(self) -> np.ndarray:
        """Values per independent vertex, shape (num_indep_vertices, n)."""
        return self.values.reshape(self.space.num_indep_vertices, self.space.n)

    def __add__(self, other):
        self._check(other)
        return DiscreteField(self.space, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return DiscreteField(self.space, self.values - other.values)

    def __mul__(self, scalar):
        return DiscreteField(self.space, self.values * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, DiscreteField) or other.space is not self.space:
            raise ValueError("fields live on different spaces")


def _restrict(space, local):
    """Sum local blocks, shape (nc, nv, n, nv, n), into a free-dof matrix."""
    pattern = space.vertex_pattern
    nnzb, n = len(pattern.indices), space.n
    blocks = np.empty((nnzb, n, n))
    for a in range(n):
        for b in range(n):
            blocks[:, a, b] = np.bincount(
                pattern.slot, weights=local[:, :, a, :, b].ravel(),
                minlength=nnzb + 1)[:nnzb]
    # the matrix gets its own index arrays: in-place operations on it, such
    # as eliminate_zeros compacting them, must never reach the cache
    matrix = sp.bsr_matrix(
        (blocks, pattern.indices.copy(), pattern.indptr.copy()),
        shape=(space.num_free, space.num_free)).tocsr()
    # entries that vanish inside a block must not reach the LU ordering
    matrix.eliminate_zeros()
    return matrix


def assemble_diffusion(space: FemSpace, tensor) -> SparseOperator:
    """Stiffness matrix of the bilinear form int a(x) du dphi.

    Row dof pattern is (component, derivative direction) of the test hat,
    column of the trial hat.
    """
    nc, nq = space.quad_points.shape[:2]
    a = tensor.evaluate(space.quad_points.reshape(nc * nq, space.mesh.dim))
    a = a.reshape(nc, nq, *a.shape[1:])  # (nc,nq,n,n,N,N)
    local = np.einsum("cq,cqabij,cwi,cvj->cwavb", space.quad_weights, a,
                      space.grads, space.grads, optimize=True)
    return SparseOperator(space, _restrict(space, local))


def assemble_divergence_load(space: FemSpace, flux: np.ndarray) -> np.ndarray:
    """Free-dof load vector of phi -> int g_i^a(x) d_i phi^a.

    ``flux`` holds values g at the space's quadrature points, shape
    (num_cells, nq, n, dim).
    """
    flux = np.asarray(flux, dtype=float)
    nc, nq = space.quad_points.shape[:2]
    if flux.shape != (nc, nq, space.n, space.mesh.dim):
        raise ValueError(f"flux shape {flux.shape} does not match "
                         f"({nc}, {nq}, {space.n}, {space.mesh.dim})")
    if not np.all(np.isfinite(flux)):
        c, q = np.argwhere(~np.isfinite(flux).reshape(nc, nq, -1).all(axis=2))[0]
        raise ValueError(
            f"non-finite flux value at quadrature point "
            f"{space.quad_points[c, q]}")
    # hat gradients are constant per cell, so the flux is summed over each
    # cell's quadrature first; the transposed gradient matrix scatters the
    # sums onto the hats
    per_cell = np.einsum("cq,cqai->cia", space.quad_weights, flux)
    full = space.gradient_matrix.T @ per_cell.reshape(-1, space.n)
    load = full.ravel()[space.free_dofs]
    if not np.all(np.isfinite(load)):
        raise ValueError("load contains non-finite entries")
    return load


def assemble_jacobian_coupling(space: FemSpace, jac: np.ndarray) -> SparseOperator:
    """Matrix of (u, phi) -> int j_i^{ab}(x) u^b(x) d_i phi^a(x).

    ``jac`` holds the flux derivative with respect to the field components at
    the quadrature points, shape (num_cells, nq, n, dim, n) indexed
    (test component, direction, trial component).  Generally nonsymmetric.
    """
    jac = np.asarray(jac, dtype=float)
    nc, nq = space.quad_points.shape[:2]
    if jac.shape != (nc, nq, space.n, space.mesh.dim, space.n):
        raise ValueError(f"jacobian shape {jac.shape} does not match "
                         f"({nc}, {nq}, {space.n}, {space.mesh.dim}, {space.n})")
    if not np.all(np.isfinite(jac)):
        raise ValueError("non-finite jacobian value")
    local = np.einsum("cq,cqaib,qv,cwi->cwavb", space.quad_weights, jac,
                      space.quad.barycentric, space.grads, optimize=True)
    return SparseOperator(space, _restrict(space, local))


def lu_factor(matrix: sp.spmatrix):
    """Sparse LU with partial pivoting; raises LinearSolveError on failure.

    Columns are ordered by minimum degree on the pattern of ``A + A^T``
    (SuperLU's ``MMD_AT_PLUS_A``): the P1 matrices are structurally
    symmetric, and on them it gives about half the fill of the default
    COLAMD ordering.
    """
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise LinearSolveError(f"linear solve failed: {exc}") from exc


def solve_linear(A: SparseOperator, rhs: np.ndarray) -> DiscreteField:
    """Solve A u = rhs on the free dofs; constrained entries stay zero.

    The residual is verified against 1e-10 * (1 + |rhs|); a quiet
    rank-deficient factorization fails this check and raises with a
    conditioning diagnostic.
    """
    if rhs.shape != (A.space.num_free,):
        raise ValueError("right-hand side length does not match free dofs")
    lu = lu_factor(A.matrix)
    u_free = lu.solve(rhs)
    bnorm = np.linalg.norm(rhs)
    residual = np.linalg.norm(A.matrix @ u_free - rhs)
    if not np.isfinite(residual) or residual > 1e-10 * (1.0 + bnorm):
        diag = np.abs(lu.U.diagonal())
        cond = float(diag.max() / diag.min()) if diag.min() > 0 else np.inf
        raise LinearSolveError(
            f"linear solve failed: residual {residual:.3e} exceeds tolerance "
            f"(pivot ratio {cond:.3e})")
    return A.space.field_from_free(u_free)

