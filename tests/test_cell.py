import numpy as np
import pytest

from homfem.cell import homogenized_tensor_1d, solve_cell_problems
from homfem.coeff import TensorField
from homfem.mesh import build_interval_mesh, build_periodic_cell_mesh

from conftest import (assert_relative_close, coupled_scenario_2d,
                      piecewise_14_tensor)


class TestSolveCellProblems:
    def test_constant_base_gives_zero_correctors(self):
        cm = build_periodic_cell_mesh(8, 1)
        corr = solve_cell_problems(TensorField.constant(1, 1, 2.5), cm)
        assert corr.max_abs <= 1e-12

    def test_constant_base_2d_system(self):
        cm = build_periodic_cell_mesh(4, 2)
        t = TensorField.constant(2, 2, 3.0)
        corr = solve_cell_problems(t, cm)
        assert corr.max_abs <= 1e-12
        assert len(corr.fields) == 2 and len(corr.fields[0]) == 2

    def test_two_phase_corrector_slopes(self):
        # constant corrected flux forces slopes ahat/a - 1 = +0.6 / -0.6
        cm = build_periodic_cell_mesh(8, 1)
        corr = solve_cell_problems(piecewise_14_tensor(), cm)
        grads = corr.space.gradients_on_cells(corr.fields[0][0].values)
        first = grads[:4].ravel()
        second = grads[4:].ravel()
        assert np.allclose(first, 0.6, atol=1e-12)
        assert np.allclose(second, -0.6, atol=1e-12)

    def test_mean_certificates(self):
        cm = build_periodic_cell_mesh(16, 1)
        corr = solve_cell_problems(piecewise_14_tensor(), cm)
        assert np.max(np.abs(corr.means)) <= 1e-10
        assert corr.residuals.max() <= 1e-10

    def test_nonperiodic_mesh_rejected(self):
        with pytest.raises(ValueError, match="periodic"):
            solve_cell_problems(piecewise_14_tensor(), build_interval_mesh(8))

    def test_scaled_tensor_rejected(self):
        cm = build_periodic_cell_mesh(8, 1)
        with pytest.raises(ValueError, match="unscaled"):
            solve_cell_problems(piecewise_14_tensor().with_epsilon(0.1), cm)

    def test_defect_carrying_field_rejected(self):
        from homfem.coeff import add_defect
        bump = TensorField.piecewise(1, 1, (4,), [0.0, 0.5, 0.0, 0.0],
                                     zero_outside=True)
        family = add_defect(piecewise_14_tensor(), bump, 0.125)
        cm = build_periodic_cell_mesh(8, 1)
        with pytest.raises(ValueError, match="defect-free"):
            solve_cell_problems(family.with_epsilon(None), cm)
        with pytest.raises(ValueError, match="defect-free"):
            homogenized_tensor_1d(family.with_epsilon(None))
        # stripping recovers the plain base both ways
        stripped = family.without_defect().with_epsilon(None)
        assert abs(homogenized_tensor_1d(stripped).matrix()[0, 0] - 1.6) \
            <= 1e-12


class TestHomogenizedTensor1d:
    def test_constant_matrix_is_fixed_point(self):
        A = np.array([[2.0, 0.3], [0.3, 1.5]])
        t = TensorField.constant(2, 1, A.reshape(2, 2))
        ahat = homogenized_tensor_1d(t)
        assert np.allclose(ahat.matrix(), A, atol=1e-12)

    def test_two_phase_harmonic_mean(self):
        ahat = homogenized_tensor_1d(piecewise_14_tensor())
        assert abs(ahat.matrix()[0, 0] - 1.6) <= 1e-12

    def test_piecewise_matrices_formula(self):
        A1 = np.array([[2.0, 0.5], [0.1, 1.0]])
        A2 = np.array([[1.0, 0.0], [0.3, 3.0]])
        t = TensorField.piecewise(2, 1, (2,), [A1, A2])
        expected = np.linalg.inv(0.5 * np.linalg.inv(A1)
                                 + 0.5 * np.linalg.inv(A2))
        ahat = homogenized_tensor_1d(t)
        assert np.allclose(ahat.matrix(), expected, atol=1e-12)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="N == 1"):
            homogenized_tensor_1d(TensorField.constant(1, 2, 1.0))

    def test_singular_matrix_rejected(self):
        t = TensorField.piecewise(2, 1, (2,),
                                  [np.eye(2), np.array([[1.0, 1.0],
                                                        [1.0, 1.0]])])
        with pytest.raises(ValueError, match="singular"):
            homogenized_tensor_1d(t)


class TestHomogenizedTensorCorrectorPath:
    def test_constant_base_reproduced_exactly(self):
        cm = build_periodic_cell_mesh(4, 2)
        t = TensorField.constant(1, 2, np.diag([2.0, 3.0]))
        ahat = solve_cell_problems(t, cm).ahat
        assert np.allclose(ahat.values[0, 0], np.diag([2.0, 3.0]), atol=1e-13)

    def test_two_phase_matches_inverse_average(self):
        base = piecewise_14_tensor()
        cm = build_periodic_cell_mesh(8, 1)
        ahat = solve_cell_problems(base, cm).ahat
        assert abs(ahat.matrix()[0, 0] - 1.6) <= 1e-10

    def test_smooth_base_matches_inverse_average(self):
        # inverse-average value sqrt(3) for 2 + sin; per-cell midpoint
        # sampling of a smooth periodic coefficient is spectrally accurate,
        # so even a modest cell mesh hits machine precision
        base = TensorField.from_expressions(1, 1, "2 + sin(2*pi*x)")
        cm = build_periodic_cell_mesh(32, 1)
        ahat = solve_cell_problems(base, cm).ahat
        assert abs(ahat.matrix()[0, 0] - np.sqrt(3.0)) < 1e-12

    def test_unaligned_discontinuity_converges_under_refinement(self):
        # thirds laminate: exact inverse average (1/3 + (2/3)/4)^-1 = 2;
        # interfaces off the mesh lines leave a quadrature error that must
        # shrink under refinement (and be reported, not hidden)
        base = TensorField.piecewise(1, 1, (3,), [1.0, 4.0, 4.0])
        gaps = []
        for n in (16, 32, 64, 128):
            cm = build_periodic_cell_mesh(n, 1)
            ahat = solve_cell_problems(base, cm).ahat
            gaps.append(abs(ahat.matrix()[0, 0] - 2.0))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05

    def test_laminate_1d_reduction_oracle(self):
        # the cell problem of a laminate is one-dimensional: harmonic mean
        # along the lamination axis, arithmetic mean across it
        base = TensorField.piecewise(1, 2, (2, 1), [1.0, 4.0])
        cm = build_periodic_cell_mesh(16, 2)
        ahat = solve_cell_problems(base, cm).ahat
        lamina = homogenized_tensor_1d(piecewise_14_tensor()).matrix()[0, 0]
        arith = 0.5 * (1.0 + 4.0)
        assert np.allclose(ahat.values[0, 0], np.diag([lamina, arith]),
                           atol=1e-10)

    def test_symmetry_inherited(self):
        # entries[alpha][beta][i][j] with n = 1: one symmetric 2x2 block
        entries = [[[["1.5 + 0.4*cos(2*pi*x1)", "0.2"],
                     ["0.2", "1.5 + 0.4*sin(2*pi*x2)"]]]]
        base = TensorField.from_expressions(1, 2, entries)
        cm = build_periodic_cell_mesh(16, 2)
        ahat = solve_cell_problems(base, cm).ahat
        q = np.transpose(ahat.values, (0, 2, 1, 3)).reshape(2, 2)
        assert np.allclose(q, q.T, atol=1e-12 * max(1.0, abs(q).max()))

    def test_refinement_cauchy(self):
        base = TensorField.from_expressions(1, 1, "2 + cos(2*pi*x)")
        values = []
        for n in (16, 32, 64, 128):
            cm = build_periodic_cell_mesh(n, 1)
            ahat = solve_cell_problems(base, cm).ahat
            values.append(ahat.matrix()[0, 0])
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        assert diffs[-1] < diffs[0]

    def test_ahat_averages_the_returned_correctors_fluxes(self):
        # the cell average of a + a grad(v), recomputed from the returned
        # correctors with a fresh evaluation of the base
        base, _ = coupled_scenario_2d()
        corr = solve_cell_problems(base, build_periodic_cell_mesh(8, 2))
        space, n, dim = corr.space, base.n, base.dim
        nc, nq = space.quad_points.shape[:2]
        a_qp = base.evaluate(space.quad_points.reshape(nc * nq, dim)).reshape(
            nc, nq, n, n, dim, dim)
        expected = np.einsum("cq,cqabij->abij", space.quad_weights, a_qp)
        for j in range(dim):
            for beta in range(n):
                grad = space.gradients_on_cells(corr.fields[j][beta].values)
                expected[:, beta, :, j] += np.einsum(
                    "cq,cqagik,cgk->ai", space.quad_weights, a_qp, grad)
        assert_relative_close(corr.ahat.values, expected, 1e-14)
