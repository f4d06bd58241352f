import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import homfem
from homfem.cell import homogenized_tensor_1d
from homfem.coeff import HomogenizedTensor
from homfem.fem import (FemSpace, LinearSolveError, assemble_diffusion,
                        assemble_jacobian_coupling)
from homfem.mesh import build_interval_mesh
from homfem.nonlin import (Constant, LinearForm, Monomial, Polynomial,
                           eval_F_jacobian)
from homfem.norms import linf_norm, w1p_norm
from homfem.solver import (FrozenOperator, SolverConfig,
                           approximate_solution, fixed_point_solve,
                           local_uniqueness_probe, nondegeneracy_margin,
                           oscillatory_operator, solve_homogenized)

from conftest import (bound_flux, constant_field, effective_operator,
                      fixed_point_from_ubar, oscillatory_scenario_1d,
                      piecewise_14_tensor, space_1d)


def _linear_nl(expr="x", dim=1, *more):
    """The flux ``expr`` in its only entry, plus the ``(g, h)`` terms
    ``more`` there."""
    return bound_flux(1, dim, ([1, 1], expr, Constant(1.0)),
                      *(([1, 1], g, h) for g, h in more))


def _unit_ahat(dim=1, value=1.0):
    arr = np.zeros((1, 1, dim, dim))
    for i in range(dim):
        arr[0, 0, i, i] = value
    return HomogenizedTensor(arr)


class TestSolveHomogenized:
    def test_u_independent_flux_single_step(self):
        space = space_1d(16)
        u0, report = solve_homogenized(
            effective_operator(space, _unit_ahat()), _linear_nl(),
            SolverConfig())
        assert report.status == "converged"
        assert report.iterations == 1
        assert np.isclose(u0.values[8], 0.125, atol=1e-12)  # x = 0.5

    def test_zero_flux_gives_zero(self):
        space = space_1d(8)
        nl = bound_flux(1, 1)
        u0, report = solve_homogenized(effective_operator(space, _unit_ahat()),
                                       nl, SolverConfig())
        assert report.status == "converged"
        assert np.allclose(u0.values, 0.0)

    def test_fine_mesh_self_oracle(self):
        # the coarse solve must match a much finer one at shared nodes
        _, ahat, nl = oscillatory_scenario_1d()
        cfg = SolverConfig()
        coarse = space_1d(512)
        fine = space_1d(4096)
        u_c, rep_c = solve_homogenized(effective_operator(coarse, ahat), nl,
                                       cfg)
        u_f, rep_f = solve_homogenized(effective_operator(fine, ahat), nl, cfg)
        assert rep_c.status == rep_f.status == "converged"
        shared = u_f.values[::8]
        assert np.max(np.abs(u_c.values - shared)) <= 1e-6

    def test_histories_match_iteration_count(self):
        # each loop records only the history it stops on: Newton one
        # residual per iteration and no step norm, so it never builds the
        # space's Gram matrix; the fixed point one step norm per iteration
        # and no residual
        base, ahat, nl = oscillatory_scenario_1d()
        space = space_1d(64)
        u0, newton = solve_homogenized(effective_operator(space, ahat), nl,
                                       SolverConfig())
        assert newton.status == "converged" and newton.iterations > 1
        assert len(newton.residual_history) == newton.iterations
        assert newton.step_norms == newton.contraction_factors == []
        assert "gram_matrix" not in space.__dict__
        _, fixed_point = fixed_point_from_ubar(
            oscillatory_operator(space, base.with_epsilon(1 / 8)), nl, u0,
            SolverConfig())
        assert fixed_point.status == "converged"
        assert len(fixed_point.step_norms) == fixed_point.iterations
        assert fixed_point.residual_history == []
        assert (len(fixed_point.contraction_factors)
                == fixed_point.iterations - 1)


class TestNondegeneracyMargin:
    def test_u_independent_flux_margin_is_operator_sigma(self):
        # coupling vanishes, so the margin is the diffusion operator's own
        # smallest singular value: about ahat * pi^2 after normalization
        space = space_1d(128)
        ahat = _unit_ahat(value=1.6)
        A_hat = effective_operator(space, ahat)
        u0, _ = solve_homogenized(A_hat, _linear_nl(), SolverConfig())
        margin = nondegeneracy_margin(FrozenOperator(A_hat, _linear_nl(), u0))
        assert abs(margin - 1.6 * np.pi ** 2) <= 0.01 * 1.6 * np.pi ** 2

    def test_scaling_homogeneity(self):
        space = space_1d(64)
        u0 = space.zero_field()
        m1 = nondegeneracy_margin(FrozenOperator(
            effective_operator(space, _unit_ahat(value=1.0)), _linear_nl(), u0))
        m3 = nondegeneracy_margin(FrozenOperator(
            effective_operator(space, _unit_ahat(value=3.0)), _linear_nl(), u0))
        assert np.isclose(m3, 3.0 * m1, rtol=1e-6)

    def test_margin_collapses_under_tuned_coupling(self):
        # stronger flux-value coupling drives the margin toward zero; the
        # discrete pencil K v = -kappa C v supplies the exactly singular
        # coupling strength as an independent oracle
        space = space_1d(96)
        ahat = _unit_ahat()
        u0 = space.zero_field()

        def margin_at(kappa):
            nl = bound_flux(1, 1, ([1, 1], f"{kappa}*(x - 0.5)",
                                   Polynomial([Monomial(1.0, [1])])))
            return nondegeneracy_margin(FrozenOperator(
                effective_operator(space, ahat), nl, u0))

        margins = [margin_at(k) for k in (0.0, 10.0, 30.0, 50.0)]
        assert all(b < a for a, b in zip(margins, margins[1:]))
        assert margins[-1] <= 0.05 * margins[0]

        K = assemble_diffusion(space, ahat).matrix.toarray()
        nl_unit = bound_flux(1, 1, ([1, 1], "x - 0.5",
                                    Polynomial([Monomial(1.0, [1])])))
        C = assemble_jacobian_coupling(
            space, eval_F_jacobian(nl_unit, space, u0)).matrix.toarray()
        eigs = sla.eigvals(K, -C)
        real = eigs[np.abs(eigs.imag) < 1e-8].real
        kappa_star = np.sort(real[real > 0])[0]
        assert margin_at(kappa_star) <= 1e-8 * margins[0]


class TestApproximateSolution:
    def test_no_oscillation_reproduces_effective_solution(self):
        _, ahat, nl = oscillatory_scenario_1d()
        space = space_1d(64)
        cfg = SolverConfig()
        A_hat = effective_operator(space, ahat)
        u0, _ = solve_homogenized(A_hat, nl, cfg)
        ubar = approximate_solution(FrozenOperator(A_hat, nl, u0))
        assert linf_norm(ubar - u0) <= 1e-10

    def test_u_independent_flux_is_exact_solution(self):
        space = space_1d(256)
        base = piecewise_14_tensor()
        nl = _linear_nl()
        ahat = homogenized_tensor_1d(base)
        cfg = SolverConfig()
        u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
        A_eps = oscillatory_operator(space, base.with_epsilon(1 / 16), cfg)
        frozen = FrozenOperator(A_eps, nl, u0)
        u_eps, report = fixed_point_solve(frozen, approximate_solution(frozen),
                                          cfg)
        ubar = approximate_solution(frozen)
        assert report.iterations == 1
        assert linf_norm(u_eps - ubar) <= 1e-12

    def test_refreeze_keeps_the_coupling(self):
        # the margin's Ahat + C(u0) turned into A_eps + C(u0) solves as an
        # operator built on A_eps, bit for bit, without a second C(u0)
        base, ahat, nl = oscillatory_scenario_1d()
        space = space_1d(128)
        cfg = SolverConfig()
        A_hat = effective_operator(space, ahat)
        u0, _ = solve_homogenized(A_hat, nl, cfg)
        A_eps = oscillatory_operator(space, base.with_epsilon(1 / 16), cfg)
        frozen = FrozenOperator(A_hat, nl, u0)
        C = frozen.C
        frozen.thaw()
        assert frozen.diffusion is None and frozen.lu is None
        frozen.refreeze(A_eps)
        assert frozen.C is C and frozen.diffusion is A_eps
        np.testing.assert_array_equal(
            approximate_solution(frozen).values,
            approximate_solution(FrozenOperator(A_eps, nl, u0)).values)
        with pytest.raises(ValueError, match="different spaces"):
            frozen.refreeze(effective_operator(space_1d(128), ahat))

    def test_distance_to_effective_solution_shrinks(self):
        base, ahat, nl = oscillatory_scenario_1d()
        cfg = SolverConfig()
        gaps = []
        for eps in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
            space = space_1d(round(16 / eps))
            u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
            ubar = approximate_solution(FrozenOperator(
                oscillatory_operator(space, base.with_epsilon(eps), cfg), nl,
                u0))
            gaps.append(linf_norm(ubar - u0))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))



class TestFixedPointSolve:
    def test_warns_once_when_under_resolved(self):
        # oscillatory_operator warns as it builds A_eps; the stages that
        # take the built A_eps never warn again
        base, ahat, nl = oscillatory_scenario_1d()
        space = space_1d(16)
        cfg = SolverConfig()
        u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            A_eps = oscillatory_operator(space, base.with_epsilon(1 / 16))
        assert len([w for w in caught if "resolve" in str(w.message)]) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frozen = FrozenOperator(A_eps, nl, u0)
            ubar = approximate_solution(frozen)
            u_eps, _ = fixed_point_solve(frozen, ubar, cfg)
            local_uniqueness_probe(frozen, cfg, trials=1, ubar=ubar,
                                   u_eps=u_eps)

    def test_no_oscillation_fixed_point_is_effective_solution(self):
        _, ahat, nl = oscillatory_scenario_1d()
        space = space_1d(64)
        cfg = SolverConfig()
        A_hat = effective_operator(space, ahat)
        u0, _ = solve_homogenized(A_hat, nl, cfg)
        u_eps, report = fixed_point_from_ubar(A_hat, nl, u0, cfg)
        assert report.status == "converged"
        assert linf_norm(u_eps - u0) <= 10 * cfg.fp_tol

    def test_matches_monolithic_newton(self, scenario_1d):
        base, ahat, nl = scenario_1d
        eps = 1 / 32
        space = space_1d(round(16 / eps))
        cfg = SolverConfig()
        u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
        A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
        u_fp, rep_fp = fixed_point_from_ubar(A_eps, nl, u0, cfg)
        u_newton, rep_n = solve_homogenized(A_eps, nl, cfg)
        assert rep_fp.status == rep_n.status == "converged"
        assert linf_norm(u_fp - u_newton) <= 1e-8

    def test_matches_monolithic_newton_2d_system(self):
        from conftest import coupled_scenario_2d
        from homfem.cell import solve_cell_problems
        from homfem.mesh import build_periodic_cell_mesh, build_unit_square_mesh
        base, nl = coupled_scenario_2d()
        cm = build_periodic_cell_mesh(32, 2)
        ahat = solve_cell_problems(base, cm).ahat
        eps = 1 / 4
        space = FemSpace(build_unit_square_mesh(round(8 / eps)), 2)
        cfg = SolverConfig()
        u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
        A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
        u_fp, rep_fp = fixed_point_from_ubar(A_eps, nl, u0, cfg)
        u_newton, rep_n = solve_homogenized(A_eps, nl, cfg)
        assert rep_fp.status == rep_n.status == "converged"
        assert linf_norm(u_fp - u_newton) <= 1e-8

    def test_one_step_equals_linearized_update_form(self, scenario_1d):
        # the update solved as (A+C) u_next = C u - DF(u) must equal the
        # defect-correction form u - (A+C)^{-1} (A u + DF(u)) identically
        base, ahat, nl = scenario_1d
        eps = 1 / 16
        space = space_1d(round(16 / eps))
        cfg = SolverConfig(fp_max_iter=1)
        u0, _ = solve_homogenized(effective_operator(space, ahat), nl,
                                  SolverConfig())
        te = base.with_epsilon(eps)
        A_eps = oscillatory_operator(space, te, cfg)
        frozen = FrozenOperator(A_eps, nl, u0)
        ubar = approximate_solution(frozen)
        u_next, _ = fixed_point_solve(frozen, ubar, cfg)

        from homfem.fem import assemble_divergence_load, lu_factor
        from homfem.nonlin import eval_F
        A = assemble_diffusion(space, te)
        C = assemble_jacobian_coupling(space,
                                       eval_F_jacobian(nl, space, u0))
        lu = lu_factor((A + C).matrix)
        residual = A.matrix @ ubar.free() + assemble_divergence_load(
            space, eval_F(nl, space, ubar))
        defect_form = ubar.free() - lu.solve(residual)
        assert np.max(np.abs(u_next.free() - defect_form)) <= 1e-11

    def test_fine_mesh_contraction_free_of_roundoff(self):
        # at 16,384 cells the fixed point converges in two steps, with a
        # contraction factor near 3e-8; the algebraically equal defect
        # correction u - (A+C)^{-1} (A u + DF(u)) reads 1.3e-5, because
        # A u + DF(u) carries round-off of order |A| ~ 1/h
        from homfem.cli import compute_effective_tensor, load_config, run_single
        cfg = load_config(Path(__file__).parents[1] / "configs"
                          / "two_phase_1d.yaml")
        ahat, _ = compute_effective_tensor(cfg)
        row = run_single(cfg, ahat, 1 / 1024).row
        assert row["n_cells"] == 16384 and row["status"] == "converged"
        assert row["max_contraction"] <= 1e-6

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_detected(self):
        # a strong cubic flux far outside the contraction regime blows up
        space = space_1d(64)
        nl = bound_flux(1, 1, ([1, 1], "40", Polynomial([Monomial(1.0, [3])])),
                        ([1, 1], "5*sin(2*pi*x)", Constant(1.0)))
        ahat = _unit_ahat(value=0.05)
        u0 = space.zero_field()
        u, report = fixed_point_from_ubar(effective_operator(space, ahat), nl,
                                          u0, SolverConfig(fp_max_iter=40))
        assert report.status in ("diverged", "max-iter")

    def test_estimate_shape_constant_is_stable(self, scenario_1d):
        # |u_eps - u0|_inf stays within a stable multiple of
        # |ubar - u0|_inf plus the first-step residual proxy
        base, ahat, nl = scenario_1d
        cfg = SolverConfig()
        ratios = []
        for eps in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
            space = space_1d(round(16 / eps))
            u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
            A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
            frozen = FrozenOperator(A_eps, nl, u0)
            ubar = approximate_solution(frozen)
            u_eps, report = fixed_point_solve(frozen, ubar, cfg)
            bound = linf_norm(ubar - u0) + report.step_norms[0]
            ratios.append(linf_norm(u_eps - u0) / bound)
        assert max(ratios) / min(ratios) <= 2.0
        assert max(ratios) <= 2.0


class TestFailureRule:
    """Newton and the fixed point share one loop and one failure rule."""

    def test_failed_first_linear_solve_propagates(self):
        # Newton's first step fails; the fixed point's one factorization
        # fails as its frozen operator is built.  The singular operator is
        # all zero on the space's pattern, as every operator stores it
        space = space_1d(16)
        singular = assemble_diffusion(space, constant_field(1, 1, 0.0))
        u0 = space.zero_field()
        with pytest.raises(LinearSolveError):
            solve_homogenized(singular, _linear_nl())
        with pytest.raises(LinearSolveError):
            FrozenOperator(singular, _linear_nl(), u0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_flux_overflow_at_first_iterate_diverges_at_the_start(self):
        # the strong forcing throws the first iterate far past the point
        # where exp(20 u) overflows; at the start u = -30 the flux is finite
        space = space_1d(32)
        nl = _linear_nl("2000*x", 1, ("1", LinearForm("exp", [20.0], 0.0)))
        ahat = _unit_ahat(value=1.6)
        start = space.field_from_free(np.full(space.num_free, -30.0))
        A_hat = effective_operator(space, ahat)
        u, report = fixed_point_solve(
            FrozenOperator(A_hat, nl, space.zero_field()), start)
        assert report.status == "diverged"
        assert report.iterations == 0
        assert report.residual_history == report.step_norms == []
        assert np.array_equal(u.values, start.values)


class TestLocalUniquenessProbe:
    def test_zero_perturbation_bit_identical(self, scenario_1d):
        base, ahat, nl = scenario_1d
        eps = 1 / 16
        space = space_1d(round(16 / eps))
        cfg = SolverConfig()
        u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
        A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
        frozen = FrozenOperator(A_eps, nl, u0)
        ubar = approximate_solution(frozen)
        u_eps, _ = fixed_point_solve(frozen, ubar, cfg)
        probe = local_uniqueness_probe(frozen, cfg, trials=2, seed=0,
                                       magnitude=0.0, ubar=ubar, u_eps=u_eps)
        assert probe.distances == [0.0, 0.0]

    def test_seeded_restarts_agree(self, scenario_1d):
        base, ahat, nl = scenario_1d
        eps = 1 / 16
        space = space_1d(round(16 / eps))
        cfg = SolverConfig()
        u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
        A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
        frozen = FrozenOperator(A_eps, nl, u0)
        ubar = approximate_solution(frozen)
        u_eps, _ = fixed_point_solve(frozen, ubar, cfg)
        probe = local_uniqueness_probe(frozen, cfg, trials=5, seed=11,
                                       ubar=ubar, u_eps=u_eps)
        assert not probe.outside_ball
        assert probe.all_same
        assert max(probe.distances) <= 10 * cfg.fp_tol

    def test_huge_perturbation_flagged(self, scenario_1d):
        base, ahat, nl = scenario_1d
        eps = 1 / 16
        space = space_1d(round(16 / eps))
        cfg = SolverConfig()
        u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
        A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
        frozen = FrozenOperator(A_eps, nl, u0)
        ubar = approximate_solution(frozen)
        u_eps, _ = fixed_point_solve(frozen, ubar, cfg)
        probe = local_uniqueness_probe(frozen, cfg, trials=2, seed=1,
                                       magnitude=1000.0, ubar=ubar,
                                       u_eps=u_eps)
        assert probe.outside_ball

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_trial_with_unevaluable_start_recorded_as_diverged(self):
        # exp(20 u) overflows at every perturbed start of max-norm 100, so
        # no trial can evaluate its first residual
        space = space_1d(32)
        nl = _linear_nl("x", 1, ("0.01", LinearForm("exp", [20.0], 0.0)))
        zero = space.zero_field()
        frozen = FrozenOperator(effective_operator(space, _unit_ahat()), nl,
                                zero)
        probe = local_uniqueness_probe(frozen, SolverConfig(), trials=3,
                                       magnitude=100.0, ubar=zero,
                                       u_eps=zero)
        assert probe.statuses == ["diverged"] * 3
        assert np.allclose(probe.distances, 100.0)
        assert not probe.all_same


class TestSolverConfig:
    def test_positive_tolerances_enforced(self):
        with pytest.raises(ValueError):
            SolverConfig(newton_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(fp_max_iter=0)


def test_fine_1d_newton_step_is_held_to_its_backward_error():
    # eps = 2^-12 on the shipped 1D config: 65,535 dofs, where |Ahat|_F is
    # near 1e9, so the step's residual 2.1e-10 is a backward error of 2e-19
    from homfem.cli import compute_effective_tensor, load_config
    cfg = load_config(Path(__file__).parents[1] / "configs"
                      / "two_phase_1d.yaml")
    ahat, _ = compute_effective_tensor(cfg)
    A_hat = assemble_diffusion(cfg.build_domain_space(2.0 ** -12), ahat)
    _, report = solve_homogenized(A_hat, cfg.nonlinearity,
                                  SolverConfig(newton_max_iter=1))
    assert report.iterations == 1 and report.status == "max-iter"


def test_newton_residuals_do_not_depend_on_the_blas_thread_count():
    # eps = 2^-11 on the shipped 1D config: 32,767 dofs, a residual long
    # enough for OpenBLAS to split a dot product across its threads
    script = textwrap.dedent("""
        import sys
        from homfem.cli import compute_effective_tensor, load_config
        from homfem.fem import assemble_diffusion
        from homfem.solver import solve_homogenized

        cfg = load_config(sys.argv[1])
        ahat, _ = compute_effective_tensor(cfg)
        A_hat = assemble_diffusion(cfg.build_domain_space(2.0 ** -11), ahat)
        _, report = solve_homogenized(A_hat, cfg.nonlinearity, cfg.solver)
        print(*map(float.hex, report.residual_history))
        """)
    config = Path(__file__).parents[1] / "configs" / "two_phase_1d.yaml"
    src = str(Path(homfem.__file__).parents[1])
    histories = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", script, str(config)],
                             env=env, capture_output=True, text=True,
                             check=True)
        histories.append(out.stdout.split())
    assert len(histories[0]) > 1
    assert histories[0] == histories[1]
