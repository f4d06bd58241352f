import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from homfem.coeff import TensorField
from homfem.fem import (DiscreteField, FemSpace, LinearSolveError,
                        assemble_diffusion, assemble_divergence_load,
                        assemble_jacobian_coupling, evaluate, solve_linear)
from homfem.mesh import Mesh, build_interval_mesh, build_unit_square_mesh

from conftest import space_1d


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
        assert np.allclose(b.vector, 0.0)

    def test_linear_flux_two_cells(self):
        space = space_1d(2)
        b = assemble_divergence_load(
            space, _flux_from_fn(space, lambda p: p[:, :, None]))
        assert np.allclose(b.vector, [-0.5])

    def test_zero_flux(self):
        space = space_1d(5)
        b = assemble_divergence_load(
            space, _flux_from_fn(space, lambda p: np.zeros((len(p), 1, 1))))
        assert np.allclose(b.vector, 0.0)

    def test_nonfinite_rejected(self):
        space = space_1d(4)
        flux = np.zeros((4, 1, 1, 1))
        flux[2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
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
        assert np.isclose(evaluate(u, [0.5])[0], 0.125, atol=1e-12)
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


class TestEvaluate:
    def test_vertex_values_exact(self):
        space = space_1d(4)
        u = DiscreteField(space, np.array([0.0, 1.0, 4.0, 9.0, 0.0]))
        assert np.isclose(evaluate(u, [0.5])[0], 4.0)

    def test_midpoint_average(self):
        space = space_1d(2)
        u = DiscreteField(space, np.array([0.0, 2.0, 0.0]))
        assert np.isclose(evaluate(u, [0.25])[0], 1.0)

    def test_2d_linear_field_reproduced(self):
        space = FemSpace(build_unit_square_mesh(3), 1)
        verts = space.mesh.vertices
        u = DiscreteField(space, (2 * verts[:, 0] - verts[:, 1]).copy())
        for p in ([0.3, 0.7], [0.99, 0.01], [0.5, 0.5]):
            assert np.isclose(evaluate(u, p)[0], 2 * p[0] - p[1], atol=1e-13)

    def test_outside_rejected(self):
        space = space_1d(4)
        u = space.zero_field()
        with pytest.raises(ValueError, match="outside"):
            evaluate(u, [1.5])

    def test_periodic_field_agrees_on_identified_faces(self):
        from homfem.mesh import build_periodic_cell_mesh
        space = FemSpace(build_periodic_cell_mesh(4, 2), 1,
                         constrain_boundary=False)
        rng = np.random.default_rng(12)
        u = DiscreteField(space, rng.standard_normal(space.num_dofs))
        ys = np.linspace(0.0, 1.0, 7)
        left = evaluate(u, np.column_stack([np.zeros_like(ys), ys]))
        right = evaluate(u, np.column_stack([np.ones_like(ys), ys]))
        assert np.allclose(left, right, atol=1e-13)


class TestFemSpace:
    def test_dof_partition(self):
        space = FemSpace(build_unit_square_mesh(3), 2)
        assert space.num_dofs == 2 * 16
        assert space.num_free + space.constrained_mask.sum() == space.num_dofs

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
