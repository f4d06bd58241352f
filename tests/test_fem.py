import copy
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import homfem
from homfem.expressions import compile_expression
from homfem.cli import compute_effective_tensor, parse_config
from homfem.coeff import HomogenizedTensor
from homfem.fem import (BandLU, DiscreteField, FemSpace, LinearSolveError,
                        SineSolver, SparseOperator, _hat_gradients,
                        assemble_diffusion, assemble_divergence_load,
                        assemble_jacobian_coupling, lu_factor, solve_linear)
from homfem.mesh import (Mesh, build_interval_mesh, build_periodic_cell_mesh,
                         build_unit_square_mesh)
from homfem.nonlin import Monomial, Polynomial, eval_F_jacobian
from homfem.solver import (FrozenOperator, nondegeneracy_margin,
                           solve_homogenized)

from conftest import (KERNEL_SPACES, assert_relative_close, bound_flux,
                      constant_field,
                      coo_diffusion, coo_jacobian_coupling,
                      coupled_scenario_2d, effective_operator,
                      expression_field, one_call_diffusion,
                      oscillatory_scenario_1d, piecewise_14_tensor,
                      piecewise_field, space_1d, unique_pattern)


def _flux_from_fn(space, fn):
    nc, nq = space.quad_points.shape[:2]
    pts = space.quad_points.reshape(-1, space.mesh.dim)
    vals = fn(pts)
    return vals.reshape(nc, nq, space.n, space.mesh.dim)


class TestAssembleDiffusion:
    def test_unit_coefficient_two_cells(self):
        # interior hat on h = 1/2 cells: 1/h + 1/h = 4
        space = space_1d(2)
        A = assemble_diffusion(space, constant_field(1, 1, 1.0))
        assert np.allclose(A.matrix.toarray(), [[4.0]])

    def test_linear_in_coefficient(self):
        space = space_1d(7)
        A1 = assemble_diffusion(space, constant_field(1, 1, 1.0))
        A3 = assemble_diffusion(space, constant_field(1, 1, 3.0))
        assert np.allclose(A3.matrix.toarray(), 3.0 * A1.matrix.toarray())

    def test_symmetric_flag_and_matrix(self):
        space = FemSpace(build_unit_square_mesh(4), 1)
        A = assemble_diffusion(space, constant_field(1, 2, 2.0))
        M = A.matrix.toarray()
        assert np.max(np.abs(M - M.T)) < 1e-14

    def test_nonsymmetric_tensor_flagged(self):
        t = constant_field(2, 1, np.array([[1.0, 0.5], [0.0, 1.0]]))
        space = FemSpace(build_interval_mesh(4), 2)
        M = assemble_diffusion(space, t).matrix.toarray()
        assert np.max(np.abs(M - M.T)) > 0.1

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, 16,
                      elements=st.floats(-50, 50, allow_nan=False)))
    def test_positive_definite_for_symmetric_positive_tensor(self, x):
        space = FemSpace(build_unit_square_mesh(5), 1)
        A = assemble_diffusion(space, constant_field(1, 2, 1.5))
        if np.linalg.norm(x) > 0:
            assert x @ (A.matrix @ x) > 0

    def test_assembly_additive_over_cells(self):
        # permuting the cell order changes nothing beyond roundoff
        mesh = build_unit_square_mesh(3)
        perm = np.random.default_rng(3).permutation(mesh.num_cells)
        shuffled = Mesh(dim=2, vertices=mesh.vertices.copy(),
                        cells=mesh.cells[perm].copy(),
                        boundary=mesh.boundary.copy(), resolution=3)
        t = expression_field(1, 2, "2 + sin(2*pi*x1)*cos(2*pi*x2)")
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
        C = assemble_jacobian_coupling(space, jac).matrix
        # the whole tridiagonal pattern of the three free vertices, all zero
        assert np.array_equal(C.indptr, [0, 2, 5, 7])
        assert np.array_equal(C.indices, [0, 1, 0, 1, 2, 1, 2])
        assert not C.data.any()

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

    @pytest.mark.parametrize("quadrature", ["midpoint", "3point"])
    def test_no_sum_goes_through_matmul(self, monkeypatch, quadrature):
        # einsum's optimized path hands its sums to matmul, on the 3-point
        # rule one over the quadrature points of every cell at once, which
        # a threaded BLAS may split across threads
        import numpy._core.einsumfunc as einsumfunc
        calls, matmul = [], einsumfunc.matmul

        def counted(*args, **kwargs):
            calls.append(args)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(einsumfunc, "matmul", counted)
        space = FemSpace(build_unit_square_mesh(8), 2, quadrature=quadrature)
        jac = _random_jacobian(space, 3)
        assemble_jacobian_coupling(space, jac)
        assert not calls
        # the spy sees the optimized path
        np.einsum("cq,cqi,qv,cwi->cwv", space.quad_weights, jac[:, :, 0, :, 0],
                  space.quad.barycentric, space.grads, optimize=True)
        assert calls

    def test_nonfinite_rejected(self):
        space = space_1d(4)
        jac = np.full((4, 1, 1, 1, 1), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            assemble_jacobian_coupling(space, jac)


class TestSparseOperatorSum:
    """Every operator on a space stores its whole pattern, so ``+`` is the
    sum of the data arrays."""

    def test_isotropic_diffusion_and_coupling_share_one_pattern(self):
        space = FemSpace(build_unit_square_mesh(6), 2)
        A = assemble_diffusion(space, constant_field(2, 2, 1.0))
        C = assemble_jacobian_coupling(space, _random_jacobian(space, 7))
        assert not A.matrix.data.all()
        assert np.array_equal(A.matrix.indptr, C.matrix.indptr)
        assert np.array_equal(A.matrix.indices, C.matrix.indices)
        total = (A + C).matrix
        assert np.array_equal(total.indices, A.matrix.indices)
        assert np.array_equal(total.toarray(),
                              A.matrix.toarray() + C.matrix.toarray())

    def test_different_patterns_are_refused(self):
        space = space_1d(4)
        A = assemble_diffusion(space, constant_field(1, 1, 1.0))
        diagonal = SparseOperator(space, sp.identity(space.num_free,
                                                     format="csr"))
        with pytest.raises(ValueError, match="different sparsity patterns"):
            A + diagonal

    @pytest.mark.parametrize("build", [
        lambda: FemSpace(build_unit_square_mesh(6), 2), lambda: space_1d(8)],
        ids=["square-n2", "interval-n1"])
    def test_every_operator_stores_one_read_only_pattern(self, build):
        space = build()
        # the view is taken before anything is assembled, and shares it
        view = space.with_quadrature("3point")
        tensor = _RandomTensor(space, 1)
        A = assemble_diffusion(space, tensor)
        C = assemble_jacobian_coupling(space, _random_jacobian(space, 2))
        matrices = [A.matrix, C.matrix, (A + C).matrix,
                    assemble_diffusion(view, _RandomTensor(view, 3)).matrix]
        indices, indptr = space.matrix_pattern
        assert not (indices.flags.writeable or indptr.flags.writeable)
        saved = indices.copy(), indptr.copy()
        for matrix in matrices:
            assert matrix.indices is indices and matrix.indptr is indptr
            with pytest.raises(ValueError):
                matrix.eliminate_zeros()
        # the CSR of the whole pattern, sorted, rows component fastest
        reference = coo_diffusion(space, tensor)
        assert np.array_equal(indices, reference.indices)
        assert np.array_equal(indptr, reference.indptr)
        assert np.array_equal(indices, saved[0])
        assert np.array_equal(indptr, saved[1])


class TestSolveLinear:
    def test_zero_rhs(self):
        space = space_1d(6)
        A = assemble_diffusion(space, constant_field(1, 1, 1.0))
        u = solve_linear(A, np.zeros(space.num_free))
        assert np.allclose(u.values, 0.0)

    def test_bvp_with_linear_flux_load(self):
        # d/dx (u' + x) = 0, u(0) = u(1) = 0  =>  u = x(1-x)/2
        space = space_1d(16)
        A = assemble_diffusion(space, constant_field(1, 1, 1.0))
        b = assemble_divergence_load(
            space, _flux_from_fn(space, lambda p: p[:, :, None]))
        u = solve_linear(A, -b)
        assert np.isclose(u.values[8], 0.125, atol=1e-12)  # x = 0.5
        x = space.mesh.vertices.ravel()
        assert np.allclose(u.values, x * (1 - x) / 2, atol=1e-12)

    def test_sign_convention_single_dof(self):
        space = space_1d(2)
        A = assemble_diffusion(space, constant_field(1, 1, 1.0))
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
            space, expression_field(1, 2, "2 + cos(2*pi*x1)"))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(space.num_free)
        u = solve_linear(A, b)
        res = A.matrix @ u.free() - b
        assert np.linalg.norm(res) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_singular_matrix_reported(self):
        space = space_1d(3)
        singular = sp.csr_matrix((space.num_free, space.num_free))
        A = SparseOperator(space, singular)
        with pytest.raises(LinearSolveError, match="linear solve failed"):
            solve_linear(A, np.ones(space.num_free))


def _scalar_newton_matrix():
    """``Ahat + C(u)`` of the two-phase interval problem at a rough ``u``."""
    _, ahat, nl = oscillatory_scenario_1d()
    space = space_1d(256)
    u = space.field_from_free(
        np.random.default_rng(2).uniform(-1.0, 1.0, space.num_free))
    return (effective_operator(space, ahat) + assemble_jacobian_coupling(
        space, eval_F_jacobian(nl, space, u))).matrix


def _two_component_newton_matrix():
    """``A_eps + C(u)`` of a coupled 1D system whose flux in component 1
    depends on component 2 only, so that ``C(u)`` is nonsymmetric."""
    tensor = expression_field(
        2, 1, [[[["2 + cos(2*pi*x)"]], [["0.25"]]],
               [[["0.25"]], [["3 + sin(2*pi*x)"]]]])
    nl = bound_flux(2, 1, ([1, 1], "0.5*sin(2*pi*x)",
                           Polynomial([Monomial(1.0, [0, 2])])))
    space = FemSpace(build_interval_mesh(128), 2)
    u = space.field_from_free(
        np.random.default_rng(3).uniform(-1.0, 1.0, space.num_free))
    matrix = (assemble_diffusion(space, tensor.with_epsilon(1 / 8))
              + assemble_jacobian_coupling(
                  space, eval_F_jacobian(nl, space, u))).matrix
    assert abs(matrix - matrix.T).max() > 0.1
    return matrix


class _TridiagonalLU:
    """LAPACK's ``dgttrf`` and ``dgttrs`` written out in Python: partial
    pivoting between neighbouring rows, each multiplier a quotient by its
    pivot.  A reference in the tridiagonal LU's order and arithmetic."""

    def __init__(self, matrix):
        dl, d, du = (matrix.diagonal(k).tolist() for k in (-1, 0, 1))
        n = len(d)
        du2, swapped = [0.0] * max(n - 2, 0), [False] * n
        for i in range(n - 1):
            if abs(d[i]) >= abs(dl[i]):
                dl[i] /= d[i]
                d[i + 1] -= dl[i] * du[i]
            else:
                fact = d[i] / dl[i]
                d[i], dl[i], swapped[i] = dl[i], fact, True
                du[i], d[i + 1] = d[i + 1], du[i] - fact * d[i + 1]
                if i < n - 2:
                    du2[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
        self.dl, self.d, self.du, self.du2 = dl, d, du, du2
        self.swapped = swapped

    def solve(self, rhs, trans="N"):
        dl, d, du, du2 = self.dl, self.d, self.du, self.du2
        b, n = list(rhs), len(rhs)
        if trans == "N":
            for i in range(n - 1):
                if self.swapped[i]:
                    b[i], b[i + 1] = b[i + 1], b[i] - dl[i] * b[i + 1]
                else:
                    b[i + 1] -= dl[i] * b[i]
            for i in reversed(range(n)):
                if i + 1 < n:
                    b[i] -= du[i] * b[i + 1]
                if i + 2 < n:
                    b[i] -= du2[i] * b[i + 2]
                b[i] /= d[i]
        else:
            for i in range(n):
                if i >= 1:
                    b[i] -= du[i - 1] * b[i - 1]
                if i >= 2:
                    b[i] -= du2[i - 2] * b[i - 2]
                b[i] /= d[i]
            for i in reversed(range(n - 1)):
                rest = b[i] - dl[i] * b[i + 1]
                if self.swapped[i]:
                    b[i], b[i + 1] = b[i + 1], rest
                else:
                    b[i] = rest
        return np.array(b)


class TestBandLU:
    """Every 1D matrix factors through LAPACK, a scalar field's by the
    tridiagonal LU and a system's in band storage, and answers as the
    SuperLU factor of the same matrix does; every other matrix keeps
    SuperLU."""

    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("build, bands", [
        (_scalar_newton_matrix, (1, 1)),
        (_two_component_newton_matrix, (3, 3)),
    ], ids=["scalar", "two-component"])
    def test_solves_agree_with_superlu(self, build, bands, trans,
                                       superlu_calls):
        matrix = build()
        lu = lu_factor(matrix)
        assert isinstance(lu, BandLU) and superlu_calls == []
        assert (lu.kl, lu.ku) == bands
        assert lu.tridiagonal == (bands == (1, 1))
        # the tridiagonal factors hold the three diagonals and U's second
        # superdiagonal; a band holds 2 kl + ku + 1 rows
        n = matrix.shape[0]
        assert lu.nnz == (4 * n - 4 if lu.tridiagonal
                          else (2 * lu.kl + lu.ku + 1) * n)
        reference = spla.splu(matrix.tocsc())
        rhs = np.random.default_rng(4).standard_normal(matrix.shape[0])
        x, y = lu.solve(rhs, trans=trans), reference.solve(rhs, trans=trans)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("n", [1, 2, 3, 32767])
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_tridiagonal_solves_agree_with_superlu(self, n, trans,
                                                   superlu_calls):
        # SciPy's dgttrf wrapper refuses orders 1 and 2, which keep dgbtrf
        rng = np.random.default_rng(n)
        matrix = sp.diags([rng.uniform(-1.0, 1.0, n - 1),
                           rng.uniform(3.0, 4.0, n),
                           rng.uniform(-1.0, 1.0, n - 1)], [-1, 0, 1],
                          format="csr")
        lu = lu_factor(matrix)
        assert isinstance(lu, BandLU) and superlu_calls == []
        assert lu.tridiagonal == (n >= 3)
        rhs = rng.standard_normal(n)
        x = lu.solve(rhs, trans=trans)
        y = spla.splu(matrix.tocsc()).solve(rhs, trans=trans)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_exactly_singular_band_raises(self, superlu_calls):
        singular = sp.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                           [1.0, 1.0, 0.0],
                                           [0.0, 1.0, 1.0]]))
        with pytest.raises(LinearSolveError, match="exactly singular"):
            lu_factor(singular)
        assert superlu_calls == []

    def test_exactly_singular_tridiagonal_raises(self, monkeypatch,
                                                 superlu_calls):
        # every tridiagonal entry stored, the middle row the sum of the others
        singular = sp.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                           [1.0, 2.0, 1.0],
                                           [0.0, 1.0, 1.0]]))
        # the band LU must not run
        monkeypatch.setattr(homfem.fem, "dgbtrf", None)
        with pytest.raises(LinearSolveError, match="exactly singular"):
            lu_factor(singular)
        assert superlu_calls == []

    @staticmethod
    def _backward_error(A, rhs, blas_norms):
        """The backward error that ``solve_linear`` reports on ``A``."""
        with pytest.raises(LinearSolveError,
                           match="exceeds tolerance") as failed:
            solve_linear(A, rhs)
        assert blas_norms == []
        return float(re.search(r"backward error (\S+)\)$",
                               str(failed.value))[1])

    @pytest.mark.parametrize("matrix", [
        np.array([[1.0, 1.0 / 3.0], [3.0, 1.0 + 1e-14]]),
        # every tridiagonal entry stored, the third row all but decoupled
        np.array([[1.0, 1.0 / 3.0, 0.0],
                  [3.0, 1.0 + 1e-14, 1e-16],
                  [0.0, 1e-16, 1.0]]),
    ], ids=["band", "tridiagonal"])
    def test_nearly_singular_solve_reports_a_small_backward_error(
            self, matrix, blas_norms):
        # the residual is large only because the solution is huge: the
        # factor solved a nearby system, as a backward-stable LU does, and
        # the solve is accepted by that small backward error
        n = len(matrix)
        A = SparseOperator(space_1d(n + 1), sp.csr_matrix(matrix))
        assert lu_factor(A.matrix).tridiagonal == (n == 3)
        rhs = np.zeros(n)
        rhs[0] = 1.0
        u = solve_linear(A, rhs).free()
        assert blas_norms == []
        residual = np.linalg.norm(A.matrix @ u - rhs)
        assert residual > 1e-10 * (1.0 + np.linalg.norm(rhs))
        assert residual / (np.linalg.norm(A.matrix.toarray())
                           * np.linalg.norm(u) + 1.0) < 1e-15

    def test_pivot_growth_reports_a_large_backward_error(self, superlu_calls,
                                                         blas_norms):
        # Wilkinson's matrix: partial pivoting grows its entries by 2^(n-1);
        # its last column and last row make it a full band
        n = 40
        matrix = np.eye(n) - np.tril(np.ones((n, n)), -1)
        matrix[:, -1] = 1.0
        A = SparseOperator(space_1d(n + 1), sp.csr_matrix(matrix))
        lu = lu_factor(A.matrix)
        assert isinstance(lu, BandLU) and not lu.tridiagonal
        rhs = np.random.default_rng(0).standard_normal(n)
        assert self._backward_error(A, rhs, blas_norms) > 1e-10
        assert superlu_calls == []

    def test_cancelled_entries_keep_the_tridiagonal_lu(self, superlu_calls):
        # the zero-coefficient cell cancels the entries that couple its two
        # vertices; the matrix still stores all three diagonals
        tensor = piecewise_field(1, 1, [8], [1, 1, 1, 0, 1, 1, 1, 1])
        A = assemble_diffusion(space_1d(8), tensor).matrix
        assert A.nnz == 3 * 7 - 2 and not A.data.all()
        lu = lu_factor(A)
        assert isinstance(lu, BandLU) and lu.tridiagonal
        rhs = np.arange(1.0, 8.0)
        assert np.allclose(A @ lu.solve(rhs), rhs, rtol=0, atol=1e-12)
        assert superlu_calls == []

    def test_empty_and_unsorted_matrices_keep_superlu(self, superlu_calls):
        empty = lu_factor(sp.csr_matrix((0, 0)))
        assert empty.solve(np.zeros(0)).shape == (0,)
        with pytest.raises(LinearSolveError, match="exactly singular"):
            lu_factor(sp.csr_matrix(np.diag([1.0, 0.0, 2.0])))  # empty row
        unsorted = sp.csr_matrix((np.array([1.0, 4.0, 1.0, 4.0]),
                                  np.array([1, 0, 0, 1]),
                                  np.array([0, 2, 4])), shape=(2, 2))
        assert not unsorted.has_sorted_indices
        x = lu_factor(unsorted).solve(np.array([5.0, 5.0]))
        assert np.allclose(x, 1.0)
        assert len(superlu_calls) == 3

    def test_margin_matches_the_superlu_margin(self):
        _, ahat, nl = oscillatory_scenario_1d()
        space = space_1d(round(16 * 256))
        A_hat = effective_operator(space, ahat)
        u0, report = solve_homogenized(A_hat, nl)
        assert report.status == "converged"
        banded = FrozenOperator(A_hat, nl, u0)
        assert isinstance(banded.lu, BandLU) and banded.lu.tridiagonal
        margin = nondegeneracy_margin(banded)
        matrix = (A_hat + banded.C).matrix
        # LAPACK's tridiagonal LU written out agrees to round-off (here to
        # the bit); SuperLU, in the minimum-degree order lu_factor gives 2D
        # matrices and multiplying by each pivot's reciprocal where dgttrf
        # divides, moves the margin by 6.8e-13 relative, within the
        # benchmark output check's bound of 2e-10
        for lu, rtol in ((_TridiagonalLU(matrix), 1e-12),
                         (spla.splu(matrix.tocsc(),
                                    permc_spec="MMD_AT_PLUS_A"), 2e-10)):
            reference = copy.copy(banded)
            reference.lu = lu
            expected = nondegeneracy_margin(reference)
            assert abs(margin - expected) <= rtol * expected

    def test_factoring_131071_dofs_keeps_the_peak_memory(self):
        # ru_maxrss is in KiB; SuperLU's workspace raises the peak by about
        # 18 MB here, and the band holds 4 entries per dof, 4.2 MB
        script = textwrap.dedent("""
            import resource
            from homfem.coeff import ConstantTensor, TensorField
            from homfem.fem import FemSpace, assemble_diffusion, lu_factor
            from homfem.mesh import build_interval_mesh

            def peak():
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

            A = assemble_diffusion(FemSpace(build_interval_mesh(131072), 1),
                                   TensorField(1, 1, ConstantTensor(
                                       kind="constant", value=1.0))).matrix
            before = peak()
            lu = lu_factor(A)
            print(A.shape[0], peak() - before)
            """)
        src = str(Path(homfem.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        dofs, grown_kib = map(int, out.stdout.split())
        assert dofs == 131071
        assert grown_kib < 12 * 1024


@pytest.fixture(scope="module")
def coupled_ahat():
    """The effective tensor of the shipped ``coupled_2d`` config."""
    config = Path(__file__).parents[1] / "configs" / "coupled_2d.yaml"
    ahat, _ = compute_effective_tensor(parse_config(config.read_text()))
    return ahat


def _mixed_ahat(c):
    """A 2 x 2 system whose first diagonal block ``[[2, c], [c, 2]]`` has
    mixed-derivative entries; elliptic for |c| < 2."""
    values = np.zeros((2, 2, 2, 2))
    values[0, 0] = [[2.0, c], [c, 2.0]]
    values[1, 1] = 2.0 * np.eye(2)
    values[0, 1] = values[1, 0] = 0.25 * np.eye(2)
    return HomogenizedTensor(values)


class TestSineSolver:
    """The sine transform inverts a constant tensor without mixed entries
    on a Dirichlet unit-square space, and is a ``near`` for one with
    them."""

    @pytest.mark.parametrize("cells", [32, 64, 128])
    def test_inverts_the_assembled_coupled_ahat(self, coupled_ahat, cells):
        space = FemSpace(build_unit_square_mesh(cells), 2)
        A = assemble_diffusion(space, coupled_ahat).matrix
        u = np.random.default_rng(cells).standard_normal(space.num_free)
        solved = SineSolver(space, coupled_ahat.values).solve(A @ u)
        assert_relative_close(solved, u, 1e-12)

    @pytest.mark.parametrize("mesh", [
        lambda: build_interval_mesh(8),
        lambda: build_periodic_cell_mesh(8, 2),
    ], ids=["interval", "periodic-cell"])
    def test_other_spaces_raise(self, coupled_ahat, mesh):
        with pytest.raises(ValueError, match="Dirichlet unit-square"):
            SineSolver(FemSpace(mesh(), 2), coupled_ahat.values)

    def test_tensor_of_another_system_raises(self, coupled_ahat):
        space = FemSpace(build_unit_square_mesh(8), 1)
        with pytest.raises(ValueError, match="Dirichlet unit-square"):
            SineSolver(space, coupled_ahat.values)

    # which path a mixed tensor takes does not depend on the mesh: it is
    # the same from 16 to 128 cells per side
    @pytest.mark.parametrize("c, factors", [(0.8, 0), (1.5, 1)])
    def test_mixed_entries_refine_or_fall_back(self, count_calls, c,
                                               factors):
        ahat = _mixed_ahat(c)
        space = FemSpace(build_unit_square_mesh(32), 2)
        A = assemble_diffusion(space, ahat)
        rhs = np.random.default_rng(0).standard_normal(space.num_free)
        factored = count_calls(lu_factor)
        refined = solve_linear(A, rhs, near=SineSolver(space, ahat.values))
        assert len(factored) == factors
        assert_relative_close(refined.free(), solve_linear(A, rhs).free(),
                              1e-12)

    @pytest.mark.parametrize("c, factors", [(0.8, 0), (1.5, 2)])
    def test_newton_over_a_mixed_tensor_converges_as_without_it(
            self, count_calls, c, factors):
        _, nl = coupled_scenario_2d()
        ahat = _mixed_ahat(c)
        space = FemSpace(build_unit_square_mesh(32), 2)
        A_hat = assemble_diffusion(space, ahat)
        factored = count_calls(lu_factor)
        u0, report = solve_homogenized(A_hat, nl,
                                       near=SineSolver(space, ahat.values))
        # two steps, each refined or factored as a single solve is
        assert report.iterations == 2 and len(factored) == factors
        reference, reference_report = solve_homogenized(A_hat, nl)
        assert report.status == reference_report.status == "converged"
        assert_relative_close(u0.values, reference.values, 1e-12)


class TestFemSpace:
    def test_dof_partition(self):
        space = FemSpace(build_unit_square_mesh(3), 2)
        assert space.num_dofs == 2 * 16
        # the four interior vertices are free, numbered in vertex order, and
        # each brings both components of its block
        interior = np.setdiff1d(np.arange(16), space.mesh.boundary)
        expected = np.full(16, -1)
        expected[interior] = np.arange(4)
        assert np.array_equal(space.free_vertices, expected)
        assert np.array_equal(space.free_dofs,
                              (2 * interior[:, None] + np.arange(2)).ravel())

    def test_fully_constrained_space_assembles_empty_matrices(self):
        space = space_1d(1)
        assert space.num_free == 0
        A = assemble_diffusion(space, constant_field(1, 1, 1.0))
        assert A.matrix.shape == (0, 0) and A.matrix.nnz == 0

    def test_periodic_space_dof_count(self):
        from homfem.mesh import build_periodic_cell_mesh
        space = FemSpace(build_periodic_cell_mesh(4, 2), 3)
        assert space.num_dofs == 3 * 16
        assert space.num_free == space.num_dofs

    def test_field_length_checked(self):
        space = space_1d(4)
        with pytest.raises(ValueError):
            DiscreteField(space, np.zeros(3))

    def test_hat_gradients_are_the_gradient_matrix_data(self):
        # one copy: the gradients are a view of the matrix's data, which a
        # 3-point view of the space shares
        space = FemSpace(build_unit_square_mesh(4), 2)
        grads = space.grads
        assert np.array_equal(grads, _hat_gradients(space.mesh))
        assert np.shares_memory(grads, space.gradient_matrix.data)
        view = space.with_quadrature("3point")
        assert view.gradient_matrix is space.gradient_matrix

    def test_a_constant_spatial_factor_is_held_as_a_broadcast(self):
        space = FemSpace(build_unit_square_mesh(4), 1, quadrature="3point")
        constant = space.quadrature_values(compile_expression("0.25", 2))
        varying = space.quadrature_values(compile_expression("x1 + x2", 2))
        for values in (constant, varying):
            assert values.shape == (space.mesh.num_cells * 3,)
            assert not values.flags.writeable
        assert constant.strides == (0,) and np.all(constant == 0.25)
        assert varying.strides == (8,)

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
        space = FemSpace(build_periodic_cell_mesh(4, 2), 2)
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


# meshes on which the per-space patterns are checked against the np.unique
# oracle: Dirichlet vertices left out in 1D and 2D, every vertex left out,
# and a two-per-axis periodic cell whose slave vertices share their
# master's dofs, so that pairs of different cells coincide
PATTERN_MESHES = {
    "interval": lambda: build_interval_mesh(9),
    "interval-constrained": lambda: build_interval_mesh(1),
    "unit-square": lambda: build_unit_square_mesh(5),
    "periodic-cell": lambda: build_periodic_cell_mesh(2, 2),
}


def _triple_product_gram(space):
    """The Gram matrix as a COO mass matrix plus ``G^T diag(|T|) G``, and
    the same sum over the absolute values of its terms."""
    nc, nv, dim = space.grads.shape
    measures = space.mesh.cell_measures
    slots = space._vertex_slot[space.mesh.cells]
    local = ((1.0 + np.eye(nv))[None, :, :] * measures[:, None, None]
             / (nv * (nv + 1)))
    rows = np.broadcast_to(slots[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(slots[:, None, :], local.shape).ravel()
    size = space.num_indep_vertices
    mass = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size))
    G, scale = space.gradient_matrix, sp.diags(np.repeat(measures, dim))
    return ((mass + G.T @ scale @ G).tocsr(),
            (mass + abs(G).T @ scale @ abs(G)).tocsr())


@pytest.mark.parametrize("mesh", sorted(PATTERN_MESHES))
class TestPerSpacePatterns:
    """``vertex_pattern`` and ``gram_matrix`` against the np.unique
    construction they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vertex_pattern_matches_the_unique_oracle(self, mesh, n):
        space = FemSpace(PATTERN_MESHES[mesh](), n)
        oracle = unique_pattern(
            space.free_vertices[space._vertex_slot[space.mesh.cells]],
            space.num_free // n)
        for array, expected in zip(space.vertex_pattern, oracle):
            assert array.dtype == np.int32
            assert np.array_equal(array, expected)

    def test_gram_matrix_matches_mass_plus_stiffness(self, mesh):
        space = FemSpace(PATTERN_MESHES[mesh](), 1)
        gram = space.gram_matrix
        indices, indptr, _ = unique_pattern(
            space._vertex_slot[space.mesh.cells], space.num_indep_vertices)
        assert np.array_equal(gram.indices, indices)
        assert np.array_equal(gram.indptr, indptr)
        assert gram.has_canonical_format
        reference, scale = _triple_product_gram(space)
        assert np.array_equal(reference.indices, indices)
        assert np.array_equal(reference.indptr, indptr)
        # a few units of round-off in the sum of the absolute terms
        assert np.all(np.abs(gram.data - reference.data)
                      <= 4 * np.finfo(float).eps * scale.data)


class TestPerSpaceBuildMemory:
    """Building a space's pattern or Gram matrix peaks at a few int32
    arrays per (cell, test vertex, trial vertex) triple, result included:
    no int64 key of every triple is sorted, and no sparse triple product
    is formed."""

    @pytest.mark.parametrize("build", ["vertex_pattern", "gram_matrix"])
    def test_peak_stays_under_160_bytes_per_cell(self, build):
        space = FemSpace(build_interval_mesh(2 ** 15), 1)
        tracemalloc.start()
        try:
            getattr(space, build)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * space.mesh.num_cells


class TestRefreezeMemory:
    """Refreezing a 2D system's frozen operator holds, beside the operators
    it is given, at most the sum's data array and SuperLU's CSC copy of
    the sum, about 20 bytes per stored entry: the sum stores no index
    arrays of its own, and it is freed once the copy exists.  SuperLU's
    own memory is not traced."""

    def test_peak_stays_under_22_bytes_per_stored_entry(self):
        base, nl = coupled_scenario_2d()
        space = FemSpace(build_unit_square_mesh(32), 2)
        u0 = space.field_from_free(
            np.random.default_rng(0).uniform(-1.0, 1.0, space.num_free))
        frozen = FrozenOperator(assemble_diffusion(space, base), nl, u0)
        A_eps = assemble_diffusion(space, base.with_epsilon(1 / 4))
        tracemalloc.start()
        try:
            frozen.refreeze(A_eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 * A_eps.matrix.nnz


def _einsum_gradients(space, values):
    return np.einsum("cva,cvd->cad", values[space.cell_dofs], space.grads)


def _einsum_divergence_load(space, flux):
    local = np.einsum("cq,cqai,cwi->cwa", space.quad_weights, flux,
                      space.grads)
    full = np.zeros(space.num_dofs)
    np.add.at(full, space.cell_dofs.ravel(), local.ravel())
    return full[space.free_dofs]


class _RandomTensor:
    """Reproducible pseudo-random tensor values: each entry is a seeded
    random multiple of the sine of a seeded random affine form of x, with
    frequencies of about a hundred, so neighbouring points draw unrelated
    values.  A point's values are elementwise functions of its own
    coordinates, so they do not depend on the other points of an
    ``evaluate`` call."""

    def __init__(self, space, seed):
        self.shape = (space.n, space.n, space.mesh.dim, space.mesh.dim)
        size = int(np.prod(self.shape))
        rng = np.random.default_rng(seed)
        self.scale = rng.standard_normal(size)
        self.freq = rng.uniform(-150.0, 150.0, (space.mesh.dim, size))
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size)

    def evaluate(self, points):
        pts = np.atleast_2d(points)
        arg = self.phase + sum(pts[:, i, None] * self.freq[i]
                               for i in range(pts.shape[1]))
        return (self.scale * np.sin(arg)).reshape(
            (len(pts),) + self.shape)


# spaces under the 3-point rule and tensors integrated on them: the family
# members of the shipped configs, and seeded random tensors
POINTWISE_CASES = {
    "interval-shipped": (
        lambda: FemSpace(build_interval_mesh(40), 1, "3point"),
        lambda space: piecewise_14_tensor().with_epsilon(1 / 8)),
    "interval-system-random": (
        lambda: FemSpace(build_interval_mesh(40), 2, "3point"),
        lambda space: _RandomTensor(space, 8)),
    "square-shipped": (
        lambda: FemSpace(build_unit_square_mesh(16), 2, "3point"),
        lambda space: coupled_scenario_2d()[0].with_epsilon(1 / 4)),
    "square-random": (
        lambda: FemSpace(build_unit_square_mesh(16), 2, "3point"),
        lambda space: _RandomTensor(space, 8)),
}


@pytest.mark.parametrize("name", sorted(POINTWISE_CASES))
def test_pointwise_integration_matches_the_one_call_oracle(name):
    # one quadrature point at a time, in point order: bit for bit the
    # integration of every point's values at once
    build_space, build_tensor = POINTWISE_CASES[name]
    space = build_space()
    tensor = build_tensor(space)
    _assert_same_csr(assemble_diffusion(space, tensor).matrix,
                     one_call_diffusion(space, tensor))


def test_pointwise_integration_of_a_scalar_1d_tensor():
    # a tensor with a single entry is the one case where the one-call
    # einsum does not sum in point order: its points are its contiguous
    # inner loop, which einsum sums over two SIMD lanes, (p0 + p2) + p1
    # on three points.  Point order agrees with it to round-off
    space = FemSpace(build_interval_mesh(40), 1, "3point")
    tensor = _RandomTensor(space, 8)
    assert_relative_close(assemble_diffusion(space, tensor).matrix.data,
                          one_call_diffusion(space, tensor).data, 1e-15)


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
        if name.startswith("square"):
            # an isotropic tensor: the diagonal-edge entries cancel to
            # exactly zero, and both assemblies store them
            isotropic = constant_field(space.n, 2, 1.0)
            matrix = assemble_diffusion(space, isotropic).matrix
            assert not matrix.data.all()
            _assert_matches_coo(name, matrix, coo_diffusion(space, isotropic))

    def test_assemble_jacobian_coupling(self, name):
        space = KERNEL_SPACES[name]()
        n, dim = space.n, space.mesh.dim
        # every (a, i, b); coupled_2d's, whose flux terms f^0_0 of u^0 and
        # f^1_1 of u^0 and u^1 leave only (0, 0, 0), (1, 1, 0) and
        # (1, 1, 1) nonzero, so the (0, 1) block is not integrated; and
        # none, as at Newton's first step from u = 0
        coupled = np.zeros((2, 2, 2), dtype=bool)
        coupled[0, 0, 0] = coupled[1, 1, 0] = coupled[1, 1, 1] = True
        A = assemble_diffusion(space, _RandomTensor(space, 5)).matrix
        for kept in (True, coupled[:n, :dim, :n], False):
            jac = _random_jacobian(space, 5) * kept
            C = assemble_jacobian_coupling(space, jac).matrix
            _assert_matches_coo(name, C, coo_jacobian_coupling(space, jac))
            # the zero blocks are stored: C adds to A by its data
            assert np.array_equal(C.indptr, A.indptr)
            assert np.array_equal(C.indices, A.indices)

    def test_vertex_pattern_is_never_mutated(self, name):
        space = KERNEL_SPACES[name]()
        pattern = space.vertex_pattern
        saved = [array.copy() for array in pattern]
        zero = assemble_jacobian_coupling(space,
                                          0.0 * _random_jacobian(space, 0))
        # the zero coupling stores the whole pattern
        assert zero.matrix.nnz == len(pattern.indices) * space.n ** 2
        assert not zero.matrix.data.any()
        tensor = _RandomTensor(space, 6)
        first = assemble_diffusion(space, tensor).matrix
        second = assemble_diffusion(space, tensor).matrix
        assert space.vertex_pattern is pattern
        for array, copy in zip(space.vertex_pattern, saved):
            assert np.array_equal(array, copy)
        _assert_same_csr(second, first)
