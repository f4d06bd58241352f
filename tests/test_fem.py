import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from homfem.coeff import TensorField
from homfem.fem import (DiscreteField, FemSpace, LinearSolveError,
                        assemble_diffusion, assemble_divergence_load,
                        assemble_jacobian_coupling, solve_linear)
from homfem.mesh import Mesh, build_interval_mesh, build_unit_square_mesh

from conftest import (KERNEL_SPACES, assert_relative_close, coo_diffusion,
                      coo_jacobian_coupling, space_1d)


def _flux_from_fn(space, fn):
    nc, nq = space.quad_points.shape[:2]
    pts = space.quad_points.reshape(-1, space.mesh.dim)
    vals = fn(pts)
    return vals.reshape(nc, nq, space.n, space.mesh.dim)


class TestAssembleDiffusion:
    def test_unit_coefficient_two_cells(self):
        # interior hat on h = 1/2 cells: 1/h + 1/h = 4
        space = space_1d(2)
        A = assemble_diffusion(space, TensorField.constant(1, 1, 1.0))
        assert np.allclose(A.matrix.toarray(), [[4.0]])

    def test_linear_in_coefficient(self):
        space = space_1d(7)
        A1 = assemble_diffusion(space, TensorField.constant(1, 1, 1.0))
        A3 = assemble_diffusion(space, TensorField.constant(1, 1, 3.0))
        assert np.allclose(A3.matrix.toarray(), 3.0 * A1.matrix.toarray())

    def test_symmetric_flag_and_matrix(self):
        space = FemSpace(build_unit_square_mesh(4), 1)
        A = assemble_diffusion(space, TensorField.constant(1, 2, 2.0))
        M = A.matrix.toarray()
        assert np.max(np.abs(M - M.T)) < 1e-14

    def test_nonsymmetric_tensor_flagged(self):
        t = TensorField.constant(2, 1, np.array([[1.0, 0.5], [0.0, 1.0]]))
        space = FemSpace(build_interval_mesh(4), 2)
        M = assemble_diffusion(space, t).matrix.toarray()
        assert np.max(np.abs(M - M.T)) > 0.1

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, 16,
                      elements=st.floats(-50, 50, allow_nan=False)))
    def test_positive_definite_for_symmetric_positive_tensor(self, x):
        space = FemSpace(build_unit_square_mesh(5), 1)
        A = assemble_diffusion(space, TensorField.constant(1, 2, 1.5))
        if np.linalg.norm(x) > 0:
            assert x @ (A.matrix @ x) > 0

    def test_assembly_additive_over_cells(self):
        # permuting the cell order changes nothing beyond roundoff
        mesh = build_unit_square_mesh(3)
        perm = np.random.default_rng(3).permutation(mesh.num_cells)
        shuffled = Mesh(dim=2, vertices=mesh.vertices.copy(),
                        cells=mesh.cells[perm].copy(),
                        boundary=mesh.boundary.copy(), resolution=3)
        t = TensorField.from_expressions(1, 2, "2 + sin(2*pi*x1)*cos(2*pi*x2)")
        A = assemble_diffusion(FemSpace(mesh, 1), t).matrix.toarray()
        B = assemble_diffusion(FemSpace(shuffled, 1), t).matrix.toarray()
        assert np.max(np.abs(A - B)) < 1e-13


class TestAssembleDivergenceLoad:
    def test_constant_flux_in_kernel(self):
        space = space_1d(8)
        b = assemble_divergence_load(
            space, _flux_from_fn(space, lambda p: np.ones((len(p), 1, 1))))
        assert np.allclose(b, 0.0)

    def test_linear_flux_two_cells(self):
        space = space_1d(2)
        b = assemble_divergence_load(
            space, _flux_from_fn(space, lambda p: p[:, :, None]))
        assert np.allclose(b, [-0.5])

    def test_zero_flux(self):
        space = space_1d(5)
        b = assemble_divergence_load(
            space, _flux_from_fn(space, lambda p: np.zeros((len(p), 1, 1))))
        assert np.allclose(b, 0.0)

    def test_nonfinite_rejected(self):
        space = space_1d(4)
        flux = np.zeros((4, 1, 1, 1))
        flux[2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            assemble_divergence_load(space, flux)

    def test_overflowing_load_rejected(self):
        # every flux value is finite, but the two cells next to each
        # interior vertex push its load past the largest double
        space = space_1d(4)
        flux = np.array([1e308, -1e308, 1e308, -1e308]).reshape(4, 1, 1, 1)
        with pytest.raises(ValueError, match="load contains non-finite"):
            assemble_divergence_load(space, flux)


class TestAssembleJacobianCoupling:
    def test_zero_jacobian(self):
        space = space_1d(4)
        jac = np.zeros((4, 1, 1, 1, 1))
        C = assemble_jacobian_coupling(space, jac)
        assert C.matrix.nnz == 0 or np.allclose(C.matrix.toarray(), 0.0)

    def test_linear_scaling(self):
        space = space_1d(6)
        rng = np.random.default_rng(0)
        jac = rng.uniform(size=(6, 1, 1, 1, 1))
        C1 = assemble_jacobian_coupling(space, jac).matrix.toarray()
        C3 = assemble_jacobian_coupling(space, 3.0 * jac).matrix.toarray()
        assert np.allclose(C3, 3.0 * C1)

    def test_unit_jacobian_two_cells_vanishes_by_symmetry(self):
        # int phi_mid phi'_mid = 0: the hat is even around the midpoint
        space = space_1d(2)
        jac = np.ones((2, 1, 1, 1, 1))
        C = assemble_jacobian_coupling(space, jac)
        assert np.allclose(C.matrix.toarray(), [[0.0]])

    def test_nonfinite_rejected(self):
        space = space_1d(4)
        jac = np.full((4, 1, 1, 1, 1), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            assemble_jacobian_coupling(space, jac)


class TestSolveLinear:
    def test_zero_rhs(self):
        space = space_1d(6)
        A = assemble_diffusion(space, TensorField.constant(1, 1, 1.0))
        u = solve_linear(A, np.zeros(space.num_free))
        assert np.allclose(u.values, 0.0)

    def test_bvp_with_linear_flux_load(self):
        # d/dx (u' + x) = 0, u(0) = u(1) = 0  =>  u = x(1-x)/2
        space = space_1d(16)
        A = assemble_diffusion(space, TensorField.constant(1, 1, 1.0))
        b = assemble_divergence_load(
            space, _flux_from_fn(space, lambda p: p[:, :, None]))
        u = solve_linear(A, -b)
        assert np.isclose(u.values[8], 0.125, atol=1e-12)  # x = 0.5
        x = space.mesh.vertices.ravel()
        assert np.allclose(u.values, x * (1 - x) / 2, atol=1e-12)

    def test_sign_convention_single_dof(self):
        space = space_1d(2)
        A = assemble_diffusion(space, TensorField.constant(1, 1, 1.0))
        b = assemble_divergence_load(
            space, _flux_from_fn(space, lambda p: p[:, :, None]))
        # plain solve A u = b gives the opposite sign of the A u + b = 0 root
        u_plain = solve_linear(A, b)
        assert np.isclose(u_plain.values[space.dof_index(1)], -0.125)
        u_conv = solve_linear(A, -b)
        assert np.isclose(u_conv.values[space.dof_index(1)], 0.125)

    def test_galerkin_residual_zero_on_free_dofs(self):
        space = FemSpace(build_unit_square_mesh(6), 1)
        A = assemble_diffusion(
            space, TensorField.from_expressions(1, 2, "2 + cos(2*pi*x1)"))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(space.num_free)
        u = solve_linear(A, b)
        res = A.matrix @ u.free() - b
        assert np.linalg.norm(res) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_singular_matrix_reported(self):
        import scipy.sparse as sp
        from homfem.fem import SparseOperator
        space = space_1d(3)
        singular = sp.csr_matrix((space.num_free, space.num_free))
        A = SparseOperator(space, singular)
        with pytest.raises(LinearSolveError, match="linear solve failed"):
            solve_linear(A, np.ones(space.num_free))


class TestFemSpace:
    def test_dof_partition(self):
        space = FemSpace(build_unit_square_mesh(3), 2)
        assert space.num_dofs == 2 * 16
        assert space.num_free + space.constrained_mask.sum() == space.num_dofs

    def test_vertex_pattern_needs_whole_vertices_constrained(self):
        space = FemSpace(build_unit_square_mesh(3), 2,
                         constrain_boundary=False)
        space.constrained_mask[0] = True  # one component of one vertex
        with pytest.raises(ValueError, match="every component"):
            space.vertex_pattern

    def test_fully_constrained_space_assembles_empty_matrices(self):
        space = space_1d(1)
        assert space.num_free == 0
        A = assemble_diffusion(space, TensorField.constant(1, 1, 1.0))
        assert A.matrix.shape == (0, 0) and A.matrix.nnz == 0

    def test_periodic_space_dof_count(self):
        from homfem.mesh import build_periodic_cell_mesh
        space = FemSpace(build_periodic_cell_mesh(4, 2), 3,
                         constrain_boundary=False)
        assert space.num_dofs == 3 * 16
        assert space.num_free == space.num_dofs

    def test_field_length_checked(self):
        space = space_1d(4)
        with pytest.raises(ValueError):
            DiscreteField(space, np.zeros(3))

    def test_midpoint_value_is_vertex_average(self):
        space = space_1d(2)
        u = DiscreteField(space, np.array([0.0, 2.0, 0.0]))
        assert np.allclose(space.values_at_quadrature(u.values)[:, 0, 0],
                           [1.0, 1.0])

    def test_2d_linear_field_reproduced(self):
        # P1 reproduces 2 x - y: exact gradient on every cell, exact values
        # at every 3-point quadrature point
        space = FemSpace(build_unit_square_mesh(3), 1, quadrature="3point")
        verts = space.mesh.vertices
        u = DiscreteField(space, (2 * verts[:, 0] - verts[:, 1]).copy())
        grads = space.gradients_on_cells(u.values)
        assert np.allclose(grads[:, 0, :], [2.0, -1.0], atol=1e-13)
        vals = space.values_at_quadrature(u.values)[:, :, 0]
        pts = space.quad_points
        assert np.allclose(vals, 2 * pts[..., 0] - pts[..., 1], atol=1e-13)

    def test_periodic_field_agrees_on_identified_faces(self):
        from homfem.mesh import build_periodic_cell_mesh
        space = FemSpace(build_periodic_cell_mesh(4, 2), 2,
                         constrain_boundary=False)
        rng = np.random.default_rng(12)
        u = DiscreteField(space, rng.standard_normal(space.num_dofs))
        verts = space.mesh.vertices
        checked = 0
        for axis in range(2):
            for v in np.nonzero(np.isclose(verts[:, axis], 1.0))[0]:
                image = verts[v].copy()
                image[axis] = 0.0
                w = int(np.argmin(np.abs(verts - image).sum(axis=1)))
                for a in range(2):
                    assert (u.values[space.dof_index(v, a)]
                            == u.values[space.dof_index(w, a)])
                checked += 1
        assert checked == 2 * 5


def _einsum_gradients(space, values):
    return np.einsum("cva,cvd->cad", values[space.cell_dofs], space.grads)


def _einsum_divergence_load(space, flux):
    local = np.einsum("cq,cqai,cwi->cwa", space.quad_weights, flux,
                      space.grads)
    full = np.zeros(space.num_dofs)
    np.add.at(full, space.cell_dofs.ravel(), local.ravel())
    return full[space.free_dofs]


class _RandomTensor:
    """Reproducible standard-normal tensor values, independent of x."""

    def __init__(self, space, seed):
        self.shape = (space.n, space.n, space.mesh.dim, space.mesh.dim)
        self.seed = seed

    def evaluate(self, points):
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal((len(points),) + self.shape)


def _random_jacobian(space, seed):
    return np.random.default_rng(seed).standard_normal(
        space.quad_points.shape[:2] + (space.n, space.mesh.dim, space.n))


def _assert_same_csr(actual, reference):
    assert np.array_equal(actual.data, reference.data)
    assert np.array_equal(actual.indices, reference.indices)
    assert np.array_equal(actual.indptr, reference.indptr)


def _assert_matches_coo(name, matrix, reference):
    assert matrix.nnz == reference.nnz
    assert_relative_close(matrix.toarray(), reference.toarray(), 1e-13)
    if name == "interval":
        # 1D sums run in the same order as the COO path, bit for bit: the
        # ladder's stalled eps = 1/2048 Newton run ends on the last bits of
        # its residuals, so its status depends on this
        _assert_same_csr(matrix, reference)


@pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
class TestSparseKernelsMatchEinsum:
    """The per-space sparse kernels against the formulas they replace."""

    def test_gradients_on_cells(self, name):
        space = KERNEL_SPACES[name]()
        values = np.random.default_rng(3).standard_normal(space.num_dofs)
        grads = space.gradients_on_cells(values)
        assert grads.shape == (space.mesh.num_cells, space.n, space.mesh.dim)
        assert_relative_close(grads, _einsum_gradients(space, values), 1e-13)

    def test_assemble_divergence_load(self, name):
        space = KERNEL_SPACES[name]()
        flux = np.random.default_rng(4).standard_normal(
            space.quad_points.shape[:2] + (space.n, space.mesh.dim))
        load = assemble_divergence_load(space, flux)
        assert_relative_close(load,
                              _einsum_divergence_load(space, flux), 1e-13)

    def test_gradient_matrix_has_one_entry_per_hat(self, name):
        space = KERNEL_SPACES[name]()
        G = space.gradient_matrix
        dim = space.mesh.dim
        assert G.shape == (space.mesh.num_cells * dim,
                           space.num_indep_vertices)
        assert np.all(np.diff(G.indptr) == dim + 1)
        assert space.gradient_matrix is G

    def test_assemble_diffusion(self, name):
        space = KERNEL_SPACES[name]()
        tensor = _RandomTensor(space, 5)
        _assert_matches_coo(name, assemble_diffusion(space, tensor).matrix,
                            coo_diffusion(space, tensor))

    def test_assemble_jacobian_coupling(self, name):
        space = KERNEL_SPACES[name]()
        jac = _random_jacobian(space, 5)
        _assert_matches_coo(name,
                            assemble_jacobian_coupling(space, jac).matrix,
                            coo_jacobian_coupling(space, jac))

    def test_vertex_pattern_is_never_mutated(self, name):
        space = KERNEL_SPACES[name]()
        pattern = space.vertex_pattern
        saved = [array.copy() for array in pattern]
        zero = assemble_jacobian_coupling(space,
                                          0.0 * _random_jacobian(space, 0))
        assert zero.matrix.nnz == 0
        tensor = _RandomTensor(space, 6)
        first = assemble_diffusion(space, tensor).matrix
        second = assemble_diffusion(space, tensor).matrix
        assert space.vertex_pattern is pattern
        for array, copy in zip(space.vertex_pattern, saved):
            assert np.array_equal(array, copy)
        _assert_same_csr(second, first)
