"""P1 finite elements for vector-valued fields on the toolkit meshes.

The discrete unknowns are nodal values of continuous piecewise-linear fields
with ``n`` components.  Degrees of freedom are laid out per independent
vertex (periodic slaves share their master's dofs), component fastest.
Dirichlet constraints are handled by free-dof elimination, never by penalty.

Sign convention used throughout the toolkit: divergence-form problems are
posed as ``A u + b = 0`` where ``A`` comes from :func:`assemble_diffusion`
and ``b`` from :func:`assemble_divergence_load`; :func:`solve_linear` itself
solves the plain system ``A u = rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

__all__ = [
    "QuadratureRule",
    "FemSpace",
    "SparseOperator",
    "LoadFunctional",
    "DiscreteField",
    "LinearSolveError",
    "assemble_diffusion",
    "assemble_divergence_load",
    "assemble_jacobian_coupling",
    "solve_linear",
    "evaluate",
]


class LinearSolveError(RuntimeError):
    """Raised when a sparse direct solve fails or is numerically rank-deficient."""


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric quadrature points and unit-measure weights for one cell."""

    name: str
    barycentric: np.ndarray  # (nq, nverts)
    weights: np.ndarray      # (nq,), summing to 1

    @property
    def num_points(self) -> int:
        return len(self.weights)


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
    pinned_vertices : sequence of int
        Extra vertices whose dofs are constrained to zero (used to fix the
        constant mode of periodic problems).
    """

    def __init__(self, mesh: Mesh, n: int, quadrature: str = "midpoint",
                 constrain_boundary: bool = True, pinned_vertices=()):
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

        constrained_vertices = set(int(v) for v in pinned_vertices)
        if constrain_boundary:
            constrained_vertices.update(int(v) for v in mesh.boundary)
        mask = np.zeros(self.num_dofs, dtype=bool)
        for v in constrained_vertices:
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
        cellwise = values[self.cell_dofs]
        return np.einsum("cva,cvd->cad", cellwise, self.grads)


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


@dataclass
class LoadFunctional:
    """Dual-pairing values against the free hat functions."""

    space: FemSpace
    vector: np.ndarray

    def __post_init__(self):
        if self.vector.shape != (self.space.num_free,):
            raise ValueError("load length does not match free dof count")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("load contains non-finite entries")

    def __neg__(self) -> "LoadFunctional":
        return LoadFunctional(self.space, -self.vector)


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


def _restrict(space, rows, cols, data):
    full = sp.coo_matrix((data, (rows, cols)),
                         shape=(space.num_dofs, space.num_dofs)).tocsr()
    free = space.free_dofs
    out = full[free][:, free].tocsr()
    out.eliminate_zeros()
    return out


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
    rows = np.broadcast_to(space.cell_dofs[:, :, :, None, None], local.shape)
    cols = np.broadcast_to(space.cell_dofs[:, None, None, :, :], local.shape)
    matrix = _restrict(space, rows.ravel(), cols.ravel(), local.ravel())
    return SparseOperator(space, matrix)


def assemble_divergence_load(space: FemSpace, flux: np.ndarray) -> LoadFunctional:
    """Load vector of phi -> int g_i^a(x) d_i phi^a.

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
    local = np.einsum("cq,cqai,cwi->cwa", space.quad_weights, flux,
                      space.grads, optimize=True)
    full = np.zeros(space.num_dofs)
    np.add.at(full, space.cell_dofs.ravel(), local.ravel())
    return LoadFunctional(space, full[space.free_dofs])


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
    rows = np.broadcast_to(space.cell_dofs[:, :, :, None, None], local.shape)
    cols = np.broadcast_to(space.cell_dofs[:, None, None, :, :], local.shape)
    matrix = _restrict(space, rows.ravel(), cols.ravel(), local.ravel())
    return SparseOperator(space, matrix)


def lu_factor(A):
    """Sparse LU with partial pivoting; raises LinearSolveError on failure.

    Accepts a SparseOperator or a plain sparse matrix.  Columns are ordered
    by minimum degree on the pattern of ``A + A^T`` (SuperLU's
    ``MMD_AT_PLUS_A``): the P1 matrices are structurally symmetric, and on
    them it gives about half the fill of the default COLAMD ordering.
    """
    matrix = A.matrix if isinstance(A, SparseOperator) else A
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise LinearSolveError(f"linear solve failed: {exc}") from exc


def solve_linear(A: SparseOperator, b) -> DiscreteField:
    """Solve A u = b on the free dofs; constrained entries stay zero.

    ``b`` may be a LoadFunctional or a plain free-dof vector.  The residual
    is verified against 1e-10 * (1 + |b|); a quiet rank-deficient
    factorization fails this check and raises with a conditioning diagnostic.
    """
    rhs = b.vector if isinstance(b, LoadFunctional) else np.asarray(b, dtype=float)
    if rhs.shape != (A.space.num_free,):
        raise ValueError("right-hand side length does not match free dofs")
    lu = lu_factor(A)
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


def _locate_cells(mesh: Mesh, pts: np.ndarray) -> np.ndarray:
    """Cell index containing each point, for the structured meshes."""
    n = mesh.resolution
    eps = 1e-12
    outside = np.any((pts < -eps) | (pts > 1.0 + eps), axis=1)
    if np.any(outside):
        raise ValueError(f"point outside domain: {pts[np.argmax(outside)]}")
    clipped = np.clip(pts, 0.0, 1.0)
    ij = np.minimum((clipped * n).astype(int), n - 1)
    if mesh.dim == 1:
        return ij[:, 0]
    # within grid square (i, j): lower triangle iff local y <= local x
    lx = clipped[:, 0] * n - ij[:, 0]
    ly = clipped[:, 1] * n - ij[:, 1]
    lower = (ly <= lx).astype(int)
    return 2 * (ij[:, 0] * n + ij[:, 1]) + (1 - lower)


def evaluate(u: DiscreteField, point) -> np.ndarray:
    """P1 interpolation of the field at a point (exact at vertices)."""
    space = u.space
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    cells = _locate_cells(space.mesh, pts)
    verts = space.mesh.vertices[space.mesh.cells[cells]]  # (m, nv, dim)
    if space.mesh.dim == 1:
        h = verts[:, 1, 0] - verts[:, 0, 0]
        t = (pts[:, 0] - verts[:, 0, 0]) / h
        bary = np.column_stack([1.0 - t, t])
    else:
        e1 = verts[:, 1, :] - verts[:, 0, :]
        e2 = verts[:, 2, :] - verts[:, 0, :]
        rel = pts - verts[:, 0, :]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        l1 = (rel[:, 0] * e2[:, 1] - rel[:, 1] * e2[:, 0]) / det
        l2 = (e1[:, 0] * rel[:, 1] - e1[:, 1] * rel[:, 0]) / det
        bary = np.column_stack([1.0 - l1 - l2, l1, l2])
    nodal = u.values[space.cell_dofs[cells]]  # (m, nv, n)
    out = np.einsum("mv,mva->ma", bary, nodal)
    return out[0] if np.ndim(point) <= 1 else out
