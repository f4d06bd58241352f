"""P1 finite elements for vector-valued fields on the toolkit meshes.

The discrete unknowns are nodal values of continuous piecewise-linear fields
with ``n`` components.  Degrees of freedom are laid out per independent
vertex (periodic slaves share their master's dofs), component fastest.
Dirichlet constraints are handled by free-dof elimination, never by penalty.

Every matrix on a space stores one sparsity pattern, by reference: the
vertex adjacency of the mesh restricted to the free vertices, with an
``n x n`` block per entry.  ``FemSpace.vertex_pattern`` builds its blocks
once, with the position in it of each (cell, test vertex, trial vertex)
pair, from a CSR of ones with its duplicates summed, so no key of every
triple is built or sorted; ``FemSpace.gram_matrix`` sums its cell matrices
the same way, into the pattern over every independent vertex.
``FemSpace.matrix_pattern`` expands the blocks into the CSR ``indices`` and
``indptr`` that every operator on the space stores, read-only, so an
operator holds only its data array.  :func:`assemble_diffusion` and
:func:`assemble_jacobian_coupling` sum their local blocks into it by
``np.bincount`` and keep every entry, also one that cancels to exactly
zero or lies in a coupling block that is zero and so is not integrated, so
two operators add by adding their data arrays.  Nothing compacts the
pattern in place: the read-only flags make ``eliminate_zeros`` raise.
Only :func:`lu_factor` drops zeros, from SuperLU's copy, and it lets go of
the matrix it is handed once that copy exists.

Matrices cross the module as :class:`SparseOperator` (the matrix with its
space) and loads as plain free-dof arrays.  Sign convention used throughout
the toolkit: divergence-form problems are posed as ``A u + b = 0`` where
``A`` comes from :func:`assemble_diffusion` and ``b`` from
:func:`assemble_divergence_load`; :func:`solve_linear` itself solves the
plain system ``A u = rhs``.

Every factorization goes through :func:`lu_factor`, which reads its storage
from the stored pattern: a matrix whose lower and upper bandwidths are below
its widest row's entry count, as every 1D P1 matrix is (block-tridiagonal),
factors through LAPACK (:class:`BandLU`): a tridiagonal one, as a scalar
field's is, by ``dgttrf``, any other in band storage by ``dgbtrf``.  Any
other matrix, such as a 2D one on all but the coarsest grids, goes to
SuperLU with a minimum-degree ordering.  Both factors answer
``solve(rhs, trans)`` and ``nnz``.  A solve need not factor at all:
:func:`solve_linear` refines over any ``near`` with ``solve(rhs)``, such as
a factor already held or a :class:`SineSolver`, the sine-transform inverse
of a constant tensor's matrix on a unit-square space, which factors
nothing.

Every solver 2-norm is :func:`norm2`, an einsum sum that does not depend
on the BLAS thread count.  :func:`solve_linear` accepts a solution by its
normwise backward error and reports a failed one by the same number, the
same formula whatever the factor.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs

from .mesh import Mesh

__all__ = [
    "QuadratureRule",
    "FemSpace",
    "SparseOperator",
    "DiscreteField",
    "LinearSolveError",
    "norm2",
    "assemble_diffusion",
    "assemble_divergence_load",
    "assemble_jacobian_coupling",
    "solve_linear",
    "SineSolver",
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
    ``len(indices)`` when either vertex is constrained.  Built by
    :func:`_block_pattern`: ``slot`` is the only array it holds per
    (cell, test vertex, trial vertex) triple.
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

    The mesh's boundary vertices carry homogeneous Dirichlet values; a
    periodic mesh has none, so every dof of its space is free.
    """

    def __init__(self, mesh: Mesh, n: int, quadrature: str = "midpoint"):
        if n < 1:
            raise ValueError("system dimension must be at least 1")
        self.mesh = mesh
        self.n = n

        masters = mesh.master_vertices()
        indep, inverse = np.unique(masters, return_inverse=True)
        self.num_indep_vertices = len(indep)
        self.num_dofs = n * self.num_indep_vertices
        # dof index of (vertex, component): interleaved, component fastest
        self._vertex_slot = inverse
        self.indep_vertices = indep

        # free index of each independent vertex, -1 on the boundary; the
        # free dofs are the free vertices' blocks, component fastest
        free = np.ones(self.num_indep_vertices, dtype=bool)
        free[inverse[mesh.boundary]] = False
        self.free_vertices = np.where(free, np.cumsum(free) - 1, -1)
        self.free_dofs = (np.nonzero(free)[0][:, None] * n
                          + np.arange(n)).ravel()
        self.num_free = len(self.free_dofs)

        # geometry caches: per-(cell, vertex, component) dof indices, the
        # hat gradients, quadrature points
        self.cell_dofs = (self._vertex_slot[mesh.cells][:, :, None] * n
                          + np.arange(n)[None, None, :])
        self.gradient_matrix = self._gradient_matrix()
        self._set_quadrature(quadrature)

    def _set_quadrature(self, kind: str) -> None:
        mesh = self.mesh
        self.quad = quadrature_rule(mesh.dim, kind)
        pts = mesh.vertices[mesh.cells]  # (nc, nv, dim)
        self.quad_points = np.einsum("qv,cvd->cqd", self.quad.barycentric, pts)
        self.quad_weights = (self.quad.weights[None, :]
                             * mesh.cell_measures[:, None])  # (nc, nq)
        self._quadrature_values = {}

    def with_quadrature(self, kind: str) -> "FemSpace":
        """The same space under another quadrature rule.

        It shares the mesh, the dof layout, the ``gradient_matrix`` (and
        with it the hat gradients), the ``matrix_pattern`` that every
        operator on either stores (built here if it was not yet) and the
        ``gram_matrix`` if it was built, none of which depends on the rule;
        the :meth:`quadrature_values` it keeps are its own.
        """
        self.matrix_pattern  # built now, so that the view shares it
        other = copy.copy(self)
        other._set_quadrature(kind)
        return other

    # -- vector plumbing -------------------------------------------------

    def dof_index(self, vertex: int, component: int = 0) -> int:
        return int(self._vertex_slot[vertex]) * self.n + component

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

    def quadrature_values(self, function) -> np.ndarray:
        """``function`` of the points, shape (m, dim) -> (m,), at the
        quadrature points, shape (num_cells * nq,).

        Evaluated on first use and kept, read-only, for as long as the
        space lives: the points never change, so a function of ``x`` alone,
        such as a flux term's spatial factor, is evaluated once per space.
        Values that are all one number are kept as that number broadcast to
        the points, so a constant factor holds no array of their length.
        """
        values = self._quadrature_values.get(function)
        if values is None:
            nc, nq = self.quad_points.shape[:2]
            values = np.asarray(function(
                self.quad_points.reshape(nc * nq, self.mesh.dim)))
            if values.size and (values == values[0]).all():
                values = np.broadcast_to(values[0].copy(), values.shape)
            else:
                values.flags.writeable = False
            self._quadrature_values[function] = values
        return values

    def gradients_on_cells(self, values: np.ndarray) -> np.ndarray:
        """Per-cell constant gradients, shape (nc, n, dim)."""
        nc, dim = self.mesh.num_cells, self.mesh.dim
        per_vertex = values.reshape(self.num_indep_vertices, self.n)
        return (self.gradient_matrix @ per_vertex).reshape(
            nc, dim, self.n).transpose(0, 2, 1)

    # -- per-space operators on one scalar component ----------------------

    def _gradient_matrix(self) -> sp.csr_matrix:
        """Cell gradients of a scalar P1 field, (cells*dim) x vertices:
        the space's ``gradient_matrix``.

        Row ``c*dim + i`` holds d_i of cell c's hats at their independent
        vertices, so it has exactly dim + 1 entries.  A component-fastest
        field ``values.reshape(vertices, n)`` maps to its gradients
        component by component.
        """
        mesh = self.mesh
        nc, nv, dim = mesh.num_cells, mesh.dim + 1, mesh.dim
        slots = self._vertex_slot[mesh.cells].astype(np.int32)  # nc, nv
        indices = np.broadcast_to(slots[:, None, :], (nc, dim, nv)).ravel()
        data = _hat_gradients(mesh).transpose(0, 2, 1).ravel()
        indptr = np.arange(0, data.size + 1, nv, dtype=np.int32)
        return sp.csr_matrix((data, indices, indptr),
                             shape=(nc * dim, self.num_indep_vertices))

    @property
    def grads(self) -> np.ndarray:
        """Gradients of each cell's hats, shape (nc, nverts, dim): a view
        of ``gradient_matrix``'s data, the one copy the space holds."""
        nc, nv, dim = self.mesh.num_cells, self.mesh.dim + 1, self.mesh.dim
        return self.gradient_matrix.data.reshape(nc, dim, nv).transpose(
            0, 2, 1)

    @cached_property
    def gram_matrix(self) -> sp.csr_matrix:
        """W^{1,2} Gram matrix of the scalar hats: mass plus Laplacian.

        Each cell adds its local matrix |T| ((1 + delta_vw) / ((dim+1)(dim+2))
        + grad phi_w . grad phi_v), the consistent P1 mass matrix plus the
        hats' stiffness, summed by ``np.bincount`` straight into the CSR
        pattern of every vertex pair of a cell (:func:`_block_pattern`).
        """
        size = self.num_indep_vertices
        pattern = _block_pattern(self._vertex_slot[self.mesh.cells], size)
        nv = self.grads.shape[1]
        measures = self.mesh.cell_measures
        local = np.einsum("cwi,cvi->cwv", self.grads * measures[:, None, None],
                          self.grads)
        local += ((1.0 + np.eye(nv))[None, :, :] * measures[:, None, None]
                  / (nv * (nv + 1)))
        nnz = len(pattern.indices)
        data = np.bincount(pattern.slot, weights=local.ravel(),
                           minlength=nnz)
        matrix = sp.csr_matrix((data, pattern.indices, pattern.indptr),
                               shape=(size, size))
        matrix.has_canonical_format = True
        return matrix

    @cached_property
    def vertex_pattern(self) -> VertexPattern:
        """The block pattern every matrix on the space is assembled into."""
        return _block_pattern(
            self.free_vertices[self._vertex_slot[self.mesh.cells]],
            self.num_free // self.n)

    @cached_property
    def matrix_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, indptr)`` of the CSR that every operator on the space
        stores by reference: ``vertex_pattern`` with an ``n x n`` block per
        entry, rows and columns component fastest.  Both arrays are
        read-only, so an in-place compaction of any operator, such as
        ``eliminate_zeros``, raises instead of changing them all."""
        pattern, n = self.vertex_pattern, self.n
        indices, indptr = pattern.indices, pattern.indptr
        if n > 1:
            entries = _block_entries(pattern, n)
            indices = np.empty(n * n * len(pattern.indices), dtype=np.int32)
            for a, b in np.ndindex(n, n):
                indices[entries(a, b)] = n * pattern.indices + b
            row_counts = np.repeat(n * np.diff(pattern.indptr), n)
            indptr = np.zeros(len(row_counts) + 1, dtype=np.int32)
            np.cumsum(row_counts, out=indptr[1:])
        for array in (indices, indptr):
            array.flags.writeable = False
        return indices, indptr


def _block_pattern(cells: np.ndarray, size: int) -> VertexPattern:
    """The block CSR pattern, over ``size`` vertices, of every (test
    vertex, trial vertex) pair of a cell, for ``cells`` (nc, nv) of vertex
    indices, -1 for a vertex left out, with the slot of each pair.

    The pattern is a CSR of int8 ones with its duplicates summed; the
    slots are the entries at the pairs of a CSR of positions on it, which
    SciPy finds by a binary search within each row.  So no key of every
    (cell, w, v) triple is built, nor sorted.
    """
    nv = cells.shape[1]
    cells = cells.astype(np.int32)
    rows = np.repeat(cells, nv, axis=1).ravel()
    cols = np.tile(cells, nv).ravel()
    kept = (rows >= 0) & (cols >= 0)
    rows, cols = rows[kept], cols[kept]
    ones = sp.csr_array((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                        shape=(size, size))
    # summing the duplicates leaves the indices a view of the unsummed
    # ones' buffer; the pattern keeps a compact copy
    indices, indptr = ones.indices.copy(), ones.indptr
    del ones
    nnzb = len(indices)
    slot = np.full(kept.size, nnzb, dtype=np.int32)
    if rows.size:  # SciPy answers an empty selection with a sparse array
        positions = sp.csr_array((np.arange(nnzb, dtype=np.int32), indices,
                                  indptr), shape=(size, size))
        slot[kept] = positions[rows, cols]
    return VertexPattern(indices, indptr, slot)


def _block_entries(pattern: VertexPattern, n: int):
    """``entries(a, b)``: the position of the (a, b) entry of every block
    of ``pattern`` in the CSR of its ``n x n`` blocks.

    CSR row ``n I + a`` holds the row-a entries of block row I's blocks in
    order, b fastest, so the (a, b) entry of block k sits at ``n (k + (n -
    1) p) + a n c + b``, for p the first block of k's block row and c the
    row's block count.
    """
    counts = np.diff(pattern.indptr)
    first = np.repeat(pattern.indptr[:-1], counts)
    at = n * (np.arange(len(pattern.indices)) + (n - 1) * first)
    width = n * np.repeat(counts, counts)

    def entries(a, b):
        positions = at + b
        positions += a * width
        return positions

    return entries


def _on_pattern(data: np.ndarray, indices: np.ndarray,
                indptr: np.ndarray) -> sp.csr_matrix:
    """The square CSR matrix of ``data`` that stores ``indices`` and
    ``indptr`` themselves: SciPy's constructor keeps a view of the indices,
    and :meth:`SparseOperator.__add__` recognises a pattern by identity."""
    size = len(indptr) - 1
    matrix = sp.csr_matrix((data, indices, indptr), shape=(size, size))
    matrix.indices, matrix.indptr = indices, indptr
    return matrix


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
        """The sum of two operators that store the same ``indices`` and
        ``indptr`` objects, as every assembled operator on a space stores
        its ``matrix_pattern``: only the data arrays are summed, and the sum
        stores the same two objects.  Raises ValueError on operators that
        store other index arrays, even equal ones."""
        if other.space is not self.space:
            raise ValueError("operators live on different spaces")
        a, b = self.matrix, other.matrix
        if a.indices is not b.indices or a.indptr is not b.indptr:
            raise ValueError("operators store different sparsity patterns")
        total = _on_pattern(a.data + b.data, a.indices, a.indptr)
        return SparseOperator(self.space, total)


class DiscreteField:
    """Nodal coefficients of a P1 field (constrained entries included)."""

    def __init__(self, space: FemSpace, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (space.num_dofs,):
            raise ValueError(
                f"expected {space.num_dofs} nodal values, got {values.shape}")
        self.space = space
        self.values = values

    def free(self) -> np.ndarray:
        return self.values[self.space.free_dofs]

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


def _restrict(space, local, pairs=None):
    """Sum local blocks into a free-dof matrix: ``local(a, b)`` is the
    (nc, nv, nv) local matrix of test component a against trial component
    b, built for each (a, b) of ``pairs`` (by default every pair) one at a
    time, so that the (nc, nv, n, nv, n) array of all of them never
    exists; the blocks of the other pairs are zero.  The matrix stores
    ``space.matrix_pattern`` by reference, each entry of it, also one that
    cancels to exactly zero or lies in a zero block: its data array is all
    it holds of its own."""
    pattern = space.vertex_pattern
    nnzb, n = len(pattern.indices), space.n
    pairs = list(np.ndindex(n, n) if pairs is None else pairs)

    def summed(a, b):
        return np.bincount(pattern.slot, weights=local(a, b).ravel(),
                           minlength=nnzb + 1)[:nnzb]

    if n == 1:  # 1 x 1 blocks: the block pattern is the CSR pattern
        data = summed(0, 0) if pairs else np.zeros(nnzb)
    else:
        # every block is summed before the data array exists, so that
        # ``local`` can let go of what it builds them from
        blocks = [summed(a, b) for a, b in pairs]
        data = np.zeros(n * n * nnzb)
        entries = _block_entries(pattern, n)
        for (a, b), block in zip(pairs, blocks):
            data[entries(a, b)] = block
    matrix = _on_pattern(data, *space.matrix_pattern)
    matrix.has_canonical_format = True
    return matrix


def assemble_diffusion(space: FemSpace, tensor) -> SparseOperator:
    """Stiffness matrix of the bilinear form int a(x) du dphi.

    Row dof pattern is (component, derivative direction) of the test hat,
    column of the trial hat.

    Hat gradients are constant per cell, so the coefficient enters only
    through its integral over each cell, one (nc, N, N) array per
    component pair (a, b).  The tensor is evaluated at one quadrature
    point of every cell at a time, and its weighted values are summed into
    the integrals in point order, so beside them only one point's values
    are held, not every point's.  For a tensor of more than one entry this
    is the order of ``einsum("cq,cq...->c...")`` over all points at once,
    bit for bit.  Each pair's integral is dropped once its local matrix is
    formed.
    """
    nc, nq = space.quad_points.shape[:2]
    dim = space.mesh.dim
    cell_a = {pair: np.zeros((nc, dim, dim))
              for pair in np.ndindex(space.n, space.n)}
    for q in range(nq):
        values = tensor.evaluate(space.quad_points[:, q])
        values *= space.quad_weights[:, q, None, None, None, None]
        for a, b in cell_a:
            cell_a[a, b] += values[:, a, b]
        del values  # the next point's values would be held beside it
    grads = space.grads
    # each block's integral is dropped once its local matrix is formed
    return SparseOperator(space, _restrict(space, lambda a, b: np.einsum(
        "cij,cwi,cvj->cwv", cell_a.pop((a, b)), grads, grads,
        optimize=True)))


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

    Only the directions i with ``jac[..., a, i, b]`` nonzero somewhere are
    integrated into the (a, b) block, and a block with none is not
    integrated at all, so a flux that couples few (a, i, b), or none, as
    at ``u = 0``, costs that much less.  Every block is still stored,
    zeros included, in the space's one pattern.
    """
    jac = np.asarray(jac, dtype=float)
    nc, nq = space.quad_points.shape[:2]
    if jac.shape != (nc, nq, space.n, space.mesh.dim, space.n):
        raise ValueError(f"jacobian shape {jac.shape} does not match "
                         f"({nc}, {nq}, {space.n}, {space.mesh.dim}, {space.n})")
    if not np.all(np.isfinite(jac)):
        raise ValueError("non-finite jacobian value")
    support = jac.any(axis=(0, 1))  # (a, i, b)
    weights, bary, grads = (space.quad_weights, space.quad.barycentric,
                            space.grads)
    if space.mesh.dim == 1:
        # one direction: the weighted derivative times the test gradient,
        # spread over the trial hats; on a one-point rule these are the
        # products of ``einsum("cq,cqi,qv,cwi->cwv", ..., optimize=True)``,
        # in its order, bit for bit
        def local(a, b):
            tested = ((weights * jac[:, :, a, 0, b])[:, :, None]
                      * grads[:, None, :, 0])
            return np.einsum("cqw,qv->cwv", tested, bary)
    else:
        # the sum over directions of the derivative times the test
        # gradients, then the sum over quadrature points against the
        # weighted trial hats: two einsums without an optimized path, so
        # neither sum goes through matmul.  On a one-point rule this is
        # the optimized path's order, bit for bit.  A direction whose
        # derivative is zero everywhere adds exact zeros to the first sum,
        # so it is left out; in 2D the rest is one direction or both, a
        # slice of views either way
        weighted = weights[:, :, None] * bary  # (nc, nq, nv)

        def local(a, b):
            dirs = np.flatnonzero(support[a, :, b])
            i = slice(dirs[0], dirs[-1] + 1)
            tested = np.einsum("cqi,cwi->cqw", jac[:, :, a, i, b],
                               grads[:, :, i])
            return np.einsum("cqw,cqv->cwv", tested, weighted)

    return SparseOperator(space, _restrict(
        space, local, zip(*np.nonzero(support.any(axis=1)))))


def lu_factor(matrix: sp.spmatrix):
    """LU with partial pivoting; raises LinearSolveError on failure.

    The storage is read from the stored pattern, zeros included.  When its
    lower and upper bandwidths are both below the entry count of its widest
    row (:func:`_bandwidths`), it factors through LAPACK (:class:`BandLU`).
    Every 1D P1 matrix does, with ``kl = ku = 2n - 1`` against ``3n``
    entries, so a scalar field's is tridiagonal; a 2D one does only on the
    coarsest grids.  Any other matrix goes to SuperLU, with columns ordered
    by minimum degree on the pattern of ``A + A^T`` (``MMD_AT_PLUS_A``): the
    P1 matrices are structurally symmetric, and on them it gives about half
    the fill of the default COLAMD ordering.  Its copy drops exact zeros
    first, as the ordering would pay fill for each.

    It consumes its argument: it drops its reference to ``matrix`` once
    SuperLU's copy exists, so a matrix that the caller passes without
    binding it to a name, such as the ``.matrix`` of a sum, is freed before
    SuperLU runs.  The matrix itself is never changed.
    """
    bands = _bandwidths(matrix)
    if bands is not None:
        return BandLU(matrix, *bands)
    csc = matrix.tocsc(copy=True)
    del matrix
    csc.eliminate_zeros()
    try:
        return spla.splu(csc, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise LinearSolveError(f"linear solve failed: {exc}") from exc


def _bandwidths(matrix: sp.spmatrix):
    """``(kl, ku)`` of a matrix to factor in band storage, else None.

    Reads each CSR row's first and last column, so it needs sorted,
    duplicate-free indices and no empty row, and allocates O(rows).
    """
    if matrix.format != "csr" or matrix.shape[0] == 0:
        return None
    counts = np.diff(matrix.indptr)
    if counts.min() == 0 or not matrix.has_canonical_format:
        return None
    rows = np.arange(matrix.shape[0])
    kl = max(0, int((rows - matrix.indices[matrix.indptr[:-1]]).max()))
    ku = max(0, int((matrix.indices[matrix.indptr[1:] - 1] - rows).max()))
    return (kl, ku) if max(kl, ku) < counts.max() else None


class BandLU:
    """LAPACK's LU with partial pivoting of a CSR matrix with lower and
    upper bandwidths ``kl`` and ``ku``.

    A tridiagonal matrix that stores its three diagonals whole (``kl = ku
    = 1`` and ``3n - 2`` entries), as every scalar 1D P1 matrix does, factors
    by ``dgttrf`` into them and the second superdiagonal that pivoting
    fills in U.  Every other band, and orders below 3, which SciPy's
    ``dgttrf`` refuses, goes to ``dgbtrf``, in ``2 kl + ku + 1`` rows of
    band storage.  Answers what the pipeline reads from a SuperLU factor:
    ``solve`` with ``trans`` "N" or "T" (``dgttrs`` or ``dgbtrs``) and
    ``nnz``, the entries the factors hold.
    """

    def __init__(self, matrix: sp.csr_matrix, kl: int, ku: int):
        n = matrix.shape[0]
        self.kl, self.ku = kl, ku
        self.tridiagonal = kl == ku == 1 and n >= 3 and matrix.nnz == 3 * n - 2
        if self.tridiagonal:
            # sorted CSR rows holding every entry interleave the diagonals:
            # A[i, i], A[i, i + 1] and A[i + 1, i] sit at 3i, 3i + 1, 3i + 2
            d, du, dl = (matrix.data[k::3].copy() for k in range(3))
            *self.factor, info = dgttrf(dl, d, du, overwrite_dl=1,
                                        overwrite_d=1, overwrite_du=1)
            self.nnz = sum(f.size for f in self.factor[:4])
        else:
            ldab = 2 * kl + ku + 1
            # A[i, j] sits at ab[kl + ku + i - j, j]; Fortran order, so
            # that dgbtrf factors it in place instead of copying it
            ab = np.zeros((ldab, n), order="F")
            at = np.repeat(np.arange(kl + ku, kl + ku + n),
                           np.diff(matrix.indptr))
            at += np.intp(ldab - 1) * matrix.indices
            ab.reshape(-1, order="F")[at] = matrix.data
            self.factor, self.ipiv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
            self.nnz = ab.size
        if info > 0:
            raise LinearSolveError(
                f"linear solve failed: factor is exactly singular (zero "
                f"pivot in column {info - 1})")

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        if self.tridiagonal:
            x, _ = dgttrs(*self.factor, rhs, trans=trans)
        else:
            x, _ = dgbtrs(self.factor, self.kl, self.ku, rhs, self.ipiv,
                          trans={"N": 0, "T": 1}[trans])
        return x


def _dst1(x: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I of ``x`` along its first axis; it is its own
    inverse.  Built from the real FFT of the odd extension ``[0, x, 0,
    -reversed x]`` of length ``2 (m + 1)``, whose frequency k holds
    ``-2i sum_j x_j sin(pi (j + 1) k / (m + 1))``."""
    m = len(x)
    zero = np.zeros((1,) + x.shape[1:])
    odd = np.concatenate([zero, x, zero, -x[::-1]])
    return np.fft.rfft(odd, axis=0)[1:m + 1].imag / -np.sqrt(2.0 * (m + 1))


class SineSolver:
    """The fast Poisson solver for a constant tensor on a Dirichlet
    unit-square space (Buzbee, Golub and Nielsen, "On direct methods for
    solving Poisson's equations", SIAM J. Numer. Anal. 7, 1970).

    ``ahat``, shape (n, n, 2, 2), without mixed-derivative entries gives on
    the structured grid a P1 matrix whose (a, b) block is the 5-point
    stencil ``ahat[a, b, 0, 0] L_x + ahat[a, b, 1, 1] L_y``, for L the
    second difference along one axis.  The free dofs reshape to (x index,
    y index, component), and a 2D DST-I diagonalizes both L, with
    eigenvalues ``lam_k = 2 - 2 cos(pi k / (m + 1))`` over the ``m`` interior
    grid lines.  That leaves one n x n matrix per sine mode (k, l),
    ``ahat[:, :, 0, 0] lam_k + ahat[:, :, 1, 1] lam_l``, inverted once.  For
    an elliptic ``ahat`` each is invertible: taking xi = e_i in the
    ellipticity condition makes the symmetric part of every ``ahat[:, :, i,
    i]`` positive definite, so no mode needs a fallback.

    Mixed entries are ignored, so for a tensor with them ``solve`` inverts a
    nearby matrix: it is a ``near`` for :func:`solve_linear`, which refines
    over it.  Raises ValueError on any other space, such as a 1D or a
    periodic-cell one.
    """

    def __init__(self, space: FemSpace, ahat: np.ndarray):
        mesh, n = space.mesh, space.n
        m = mesh.resolution - 1
        if (mesh.dim != 2 or mesh.is_periodic or m < 1
                or space.num_free != m * m * n
                or np.shape(ahat) != (n, n, 2, 2)):
            raise ValueError("the sine solver needs an (n, n, 2, 2) tensor "
                             "on a Dirichlet unit-square space")
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
        modes = (lam[:, None, None, None] * ahat[:, :, 0, 0]
                 + lam[None, :, None, None] * ahat[:, :, 1, 1])
        self._inverse = np.linalg.inv(modes)  # (m, m, n, n)
        self._shape = (m, m, n)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        def dst2(x):
            return _dst1(_dst1(x).swapaxes(0, 1)).swapaxes(0, 1)

        modal = dst2(rhs.reshape(self._shape))
        return dst2(np.einsum("klab,klb->kla", self._inverse, modal)).ravel()


def _refine(matrix: sp.spmatrix, lu, rhs: np.ndarray) -> np.ndarray:
    """Iterative refinement ``x <- x + M^{-1} (rhs - A x)`` from ``x = 0``,
    with ``A = matrix`` and ``M^{-1}`` the map ``lu.solve``.

    Stops once a correction is at most 1e-16 ``|x|_inf``, or when it did
    not shrink to at most half the previous one, in which case it is not
    applied (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 12).  Contracts when ``rho(M^{-1} (M - A)) < 1``.
    """
    x = np.zeros_like(rhs)
    residual, last = rhs, np.inf
    while True:
        step = lu.solve(residual)
        size = np.linalg.norm(step, np.inf)
        if not size <= 0.5 * last:
            return x
        x = x + step
        if size <= 1e-16 * np.linalg.norm(x, np.inf):
            return x
        residual, last = rhs - matrix @ x, size


def norm2(v: np.ndarray) -> float:
    """The 2-norm of a vector, as an einsum sum of squares.

    Every solver 2-norm goes through it: ``np.linalg.norm`` takes a long
    vector's sum through the BLAS dot, which splits it across threads, so
    its last bits would follow the BLAS thread count.
    """
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def _solved(matrix: sp.spmatrix, u_free: np.ndarray, rhs: np.ndarray):
    """The check ``error <= 1e-10`` on the normwise backward error
    ``|r| / (|A|_F |u| + |rhs|)``, ``r = A u - rhs``, and the residual norm
    and error it read; a zero residual passes, also where it is 0 / 0."""
    residual = norm2(matrix @ u_free - rhs)
    if residual == 0.0:
        return True, residual, 0.0
    # |A|_F from the stored entries, which the assembly keeps canonical
    error = residual / (norm2(matrix.data) * norm2(u_free) + norm2(rhs))
    return error <= 1e-10, residual, error


def solve_linear(A: SparseOperator, rhs: np.ndarray,
                 near=None) -> DiscreteField:
    """Solve A u = rhs on the free dofs; constrained entries stay zero.

    ``near``, when given, is any object with ``solve(rhs)`` that inverts a
    nearby matrix on the same free dofs, such as the factorization of a
    linearization the caller already holds or a :class:`SineSolver`: the
    solve first refines over it (:func:`_refine`) and factors ``A`` only
    when the refined solution fails the check.  A solution is accepted when
    its normwise backward error ``|r| / (|A|_F |u| + |rhs|)`` is at most
    1e-10 (Rigal and Gaches; Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 7.1).  The formula reads nothing from the factor,
    so a backward-stable solve passes at any conditioning, and a factored
    solution that fails, as after large pivot growth, raises with it.
    """
    if rhs.shape != (A.space.num_free,):
        raise ValueError("right-hand side length does not match free dofs")
    if near is not None:
        u_free = _refine(A.matrix, near, rhs)
        if _solved(A.matrix, u_free, rhs)[0]:
            return A.space.field_from_free(u_free)
    u_free = lu_factor(A.matrix).solve(rhs)
    solved, residual, error = _solved(A.matrix, u_free, rhs)
    if not solved:
        raise LinearSolveError(
            f"linear solve failed: residual {residual:.3e} exceeds tolerance "
            f"(backward error {error:.3e})")
    return A.space.field_from_free(u_free)
