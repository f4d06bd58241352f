"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; on failure the line is shown in the captured output.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from homfem.cell import homogenized_tensor_1d, solve_cell_problems
from homfem.coeff import TensorField
from homfem.fem import FemSpace
from homfem.mesh import build_periodic_cell_mesh, build_unit_square_mesh
from homfem.nonlin import (ExpLinear, Polynomial, Rational, Sinusoid)
from homfem.norms import fit_rate, h_convergence_probe, linf_norm
from homfem.solver import (FrozenOperator, SolverConfig,
                           approximate_solution, fixed_point_solve,
                           local_uniqueness_probe, newton_solve,
                           nondegeneracy_margin, oscillatory_operator,
                           solve_homogenized)

from conftest import (coupled_scenario_2d, effective_operator,
                      fixed_point_from_ubar, flux_identity,
                      oscillatory_scenario_1d, piecewise_14_tensor, space_1d)

EPS_SWEEP_1D = (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def sweep_1d():
    """The shared 1D scale sweep (criteria 4, 7, 9): h = eps/16.

    The step tolerance is tightened below the default so the iteration runs
    long enough to record contraction factors beyond the second step; the
    convergence numbers themselves are unaffected.
    """
    base, ahat, nl = oscillatory_scenario_1d()
    cfg = SolverConfig(fp_tol=1e-12)
    one_step = SolverConfig(fp_max_iter=1)
    runs = []
    t0 = time.perf_counter()
    for eps in EPS_SWEEP_1D:
        space = space_1d(round(16 / eps))
        u0, newton_report = solve_homogenized(effective_operator(space, ahat),
                                              nl, cfg)
        assert newton_report.status == "converged"
        A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
        ubar = approximate_solution(A_eps, nl, u0)
        frozen = FrozenOperator(A_eps, nl, u0)
        u_eps, fp_report = fixed_point_solve(frozen, ubar, cfg)
        runs.append({
            "eps": eps, "frozen": frozen, "u0": u0, "ubar": ubar,
            "u_eps": u_eps, "report": fp_report,
            "err": linf_norm(u_eps - u0),
            "ubar_err": linf_norm(ubar - u0),
        })
    elapsed = time.perf_counter() - t0
    # first-step correction norms for the starting-element comparison
    for run in runs:
        _, rep_u0 = fixed_point_solve(run["frozen"], run["u0"], one_step)
        run["first_step_from_u0"] = rep_u0.step_norms[0]
        run["first_step_from_ubar"] = run["report"].step_norms[0]
    return {"base": base, "ahat": ahat, "nl": nl, "cfg": cfg,
            "runs": runs, "elapsed": elapsed}


def test_criterion_01_effective_tensor_1d():
    t0 = time.perf_counter()
    base = piecewise_14_tensor()
    direct = homogenized_tensor_1d(base).matrix()[0, 0]
    cellmesh = build_periodic_cell_mesh(16, 1)
    via_correctors = solve_cell_problems(base, cellmesh).ahat.matrix()[0, 0]
    elapsed = time.perf_counter() - t0
    ok = (abs(direct - 1.6) <= 1e-12 and abs(via_correctors - 1.6) <= 1e-10
          and elapsed < 1.0)
    _report(1, "two-phase effective coefficient, both routes", ok,
            f"direct gap={abs(direct - 1.6):.1e}, corrector gap="
            f"{abs(via_correctors - 1.6):.1e}, {elapsed:.2f}s")


def test_criterion_02_constant_tensor_correctors_vanish():
    t0 = time.perf_counter()
    worst = 0.0
    for dim, n_sys in ((1, 1), (2, 2)):
        cellmesh = build_periodic_cell_mesh(8, dim)
        tensor = TensorField.constant(n_sys, dim, 2.5)
        corr = solve_cell_problems(tensor, cellmesh)
        worst = max(worst, corr.max_abs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, "constant tensors have vanishing correctors", ok,
            f"max |corrector| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_2d_laminate():
    t0 = time.perf_counter()
    base = TensorField.piecewise(1, 2, (2, 1), [1.0, 4.0])
    target = np.diag([1.6, 2.5])

    def rel_err(n):
        cm = build_periodic_cell_mesh(n, 2)
        ahat = solve_cell_problems(base, cm).ahat
        return float(np.abs(ahat.values[0, 0] - target).max() / 2.5)

    err64 = rel_err(64)
    # the half-cell interface sits on mesh lines for even n, where the
    # computation is exact; odd resolutions expose the genuine quadrature
    # error, which must shrink under refinement
    odd_errs = [rel_err(n) for n in (15, 31, 63)]
    elapsed = time.perf_counter() - t0
    ok = (err64 <= 0.02
          and all(b < a for a, b in zip(odd_errs, odd_errs[1:]))
          and elapsed < 30.0)
    _report(3, "2D laminate effective tensor", ok,
            f"rel err at 64/side = {err64:.2e}, "
            f"odd-resolution errors {['%.3e' % e for e in odd_errs]}, "
            f"{elapsed:.1f}s")


def test_criterion_04_convergence_1d(sweep_1d):
    runs = sweep_1d["runs"]
    errs = [r["err"] for r in runs]
    slope, _ = fit_rate([(r["eps"], r["err"]) for r in runs])
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    ok = (monotone and errs[-1] <= 0.3 * errs[0]
          and all(r["report"].status == "converged" for r in runs)
          and sweep_1d["elapsed"] < 120.0)
    _report(4, "max-norm convergence to the effective solution (1D)", ok,
            f"errors {['%.3e' % e for e in errs]}, fitted slope "
            f"{slope:.3f} (recorded), {sweep_1d['elapsed']:.1f}s")


def test_criterion_05_convergence_2d_system():
    t0 = time.perf_counter()
    base, nl = coupled_scenario_2d()
    cellmesh = build_periodic_cell_mesh(64, 2)
    ahat = solve_cell_problems(base, cellmesh).ahat
    cfg = SolverConfig()
    errs = []
    for eps in (1 / 4, 1 / 8, 1 / 16):
        space = FemSpace(build_unit_square_mesh(round(8 / eps)), 2)
        A_hat = effective_operator(space, ahat)
        u0, newton_report = solve_homogenized(A_hat, nl, cfg)
        assert newton_report.status == "converged"
        margin = nondegeneracy_margin(A_hat, nl, u0)
        assert margin > 0
        u_eps, fp_report = fixed_point_from_ubar(
            oscillatory_operator(space, base.with_epsilon(eps), cfg), nl, u0,
            cfg)
        assert fp_report.status == "converged"
        errs.append(linf_norm(u_eps - u0))
    elapsed = time.perf_counter() - t0
    ok = all(b < a for a, b in zip(errs, errs[1:])) and elapsed < 600.0
    _report(5, "max-norm convergence, 2D coupled system", ok,
            f"errors {['%.3e' % e for e in errs]}, {elapsed:.1f}s")


def test_criterion_06_oracle_equivalence():
    t0 = time.perf_counter()
    base, ahat, nl = oscillatory_scenario_1d()
    eps = 1 / 32
    space = space_1d(round(16 / eps))
    cfg = SolverConfig()
    u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
    A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
    u_fp, rep_fp = fixed_point_from_ubar(A_eps, nl, u0, cfg)
    u_newton, rep_newton = newton_solve(A_eps, nl, cfg)
    gap = linf_norm(u_fp - u_newton)
    elapsed = time.perf_counter() - t0
    ok = (rep_fp.status == rep_newton.status == "converged"
          and gap <= 1e-8 and elapsed < 30.0)
    _report(6, "fixed point matches monolithic Newton", ok,
            f"max-norm gap = {gap:.2e}, {elapsed:.1f}s")


def test_criterion_07_contraction(sweep_1d):
    # at the default tolerance these runs converge in two steps and record
    # no third-iteration factor, so the two smallest scales are rerun with a
    # three-step budget and a tolerance below the arithmetic floor; past
    # three steps the updates are solver noise and their ratios measure
    # arithmetic, not the iteration map
    cfg = SolverConfig(fp_tol=1e-15, fp_max_iter=3)
    details, ok = [], True
    for run in sweep_1d["runs"][-2:]:
        _, report = fixed_point_solve(run["frozen"], run["ubar"], cfg)
        late = report.contraction_factors[1:]  # from the third iteration on
        ok = ok and len(late) > 0 and all(f <= 0.6 for f in late)
        details.append(f"eps=1/{round(1 / run['eps'])}: "
                       f"{['%.1e' % f for f in late]}")
    _report(7, "contraction factors stay below 0.6", ok, "; ".join(details))


def test_criterion_08_local_uniqueness(sweep_1d):
    run = next(r for r in sweep_1d["runs"] if r["eps"] == 1 / 32)
    cfg = sweep_1d["cfg"]
    probe = local_uniqueness_probe(run["frozen"], cfg, trials=10, seed=0,
                                   ubar=run["ubar"], u_eps=run["u_eps"])
    worst = max(probe.distances)
    ok = (all(s == "converged" for s in probe.statuses)
          and worst <= 1e-8 and not probe.outside_ball)
    _report(8, "ten perturbed restarts find the same solution", ok,
            f"max distance = {worst:.2e}, magnitude = {probe.magnitude:.3f}")


def test_criterion_09_starting_element_asymmetry(sweep_1d):
    runs = sweep_1d["runs"]
    from_ubar = [r["first_step_from_ubar"] for r in runs]
    from_u0 = [r["first_step_from_u0"] for r in runs]
    ubar_decreasing = all(b < a for a, b in zip(from_ubar, from_ubar[1:]))
    u0_stays_up = all(v >= 0.5 * from_u0[0] for v in from_u0)
    ok = ubar_decreasing and u0_stays_up
    _report(9, "approximate solution is the right starting element", ok,
            f"from ubar {['%.1e' % v for v in from_ubar]}, "
            f"from u0 {['%.3f' % v for v in from_u0]}")


def test_criterion_10_h_convergence_probe():
    base = piecewise_14_tensor()
    ahat = homogenized_tensor_1d(base)
    rows = h_convergence_probe(base, ahat, flux_identity,
                               [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    # solution pairings must decrease mode by mode; flux pairings decrease
    # or sit at the solver floor (in one dimension the discrete flux
    # difference is a constant, so these pairings vanish identically)
    floor = 1e-10
    pair_ok = all(np.all(b.pairings < a.pairings)
                  for a, b in zip(rows, rows[1:]))
    flux_ok = all(np.all((b.flux_pairings < a.flux_pairings)
                         | (b.flux_pairings <= floor))
                  for a, b in zip(rows, rows[1:]))
    grad_ok = rows[-1].grad_l2_diff >= 0.1 * rows[0].grad_l2_diff
    ok = pair_ok and flux_ok and grad_ok
    _report(10, "weak convergence without strong gradient convergence", ok,
            f"final pairing max = {rows[-1].pairings.max():.2e}, grad-L2 "
            f"ratio = {rows[-1].grad_l2_diff / rows[0].grad_l2_diff:.3f}")


def test_criterion_11_jacobian_consistency():
    members = [
        Polynomial([(0.7, (3, 0)), (-0.4, (1, 2)), (0.2, (0, 0))], 2),
        Sinusoid("sin", [1.3, -0.8], 0.2, 2),
        Sinusoid("cos", [0.5, 0.9], -0.1, 2),
        ExpLinear([0.6, -0.3], 0.0, 2),
        Rational(Polynomial([(1.0, (2, 0)), (0.5, (0, 1))], 2),
                 Polynomial([(2.0, (0, 0)), (1.0, (2, 0)), (1.0, (0, 2))], 2)),
    ]
    rng = np.random.default_rng(123)
    delta, worst = 1e-4, 0.0
    for h in members:
        u = rng.uniform(-1.0, 1.0, size=(100, 2))
        grad = h.gradient(u)
        for b in range(2):
            step = np.zeros(2)
            step[b] = delta
            fd = (h(u + step) - h(u - step)) / (2 * delta)
            rel = np.abs(fd - grad[:, b]) / (1.0 + np.abs(grad[:, b]))
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-6
    _report(11, "analytic flux derivatives match central differences", ok,
            f"worst relative error = {worst:.2e} over "
            f"{len(members)} catalog members x 100 samples")


def test_criterion_12_margin_mesh_stability(sweep_1d):
    ahat, nl, cfg = sweep_1d["ahat"], sweep_1d["nl"], sweep_1d["cfg"]
    margins = []
    for n in (512, 1024):
        space = space_1d(n)
        A_hat = effective_operator(space, ahat)
        u0, _ = solve_homogenized(A_hat, nl, cfg)
        margins.append(nondegeneracy_margin(A_hat, nl, u0))
    rel = abs(margins[1] - margins[0]) / margins[0]
    ok = rel <= 0.10
    _report(12, "non-degeneracy estimate stable under refinement", ok,
            f"margins = {margins[0]:.4f} / {margins[1]:.4f}, "
            f"rel change = {rel:.2%}")
