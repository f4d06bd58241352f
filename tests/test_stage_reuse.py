"""Each pipeline stage computes its result once; later stages reuse it.

The counters wrap a homfem function at every homfem module that binds it
(``solver`` imports ``lu_factor`` from ``fem``, ``cli`` imports
``solve_homogenized`` from ``solver``), so every call is seen.
"""

import sys

import pytest

import homfem.cli
from homfem.cli import main, parse_config, run_sweep
from homfem.fem import lu_factor
from homfem.nonlin import eval_F
from homfem.solver import (SolverConfig, approximate_solution,
                           fixed_point_solve, local_uniqueness_probe,
                           newton_solve, solve_homogenized)

from conftest import space_1d

CONFIG = """
domain: interval
tensor: {kind: piecewise, grid: [2], values: [1.0, 4.0]}
nonlinearity:
  p0: 4.0
  terms:
    - target: [1, 1]
      g: "0.5*sin(2*pi*x)"
      h: {kind: constant}
    - target: [1, 1]
      g: "0.25"
      h: {kind: polynomial, monomials: [{coeff: 1.0, powers: [2]}]}
eps: [0.125, 0.0625]
mesh: {cells_per_eps: 16, cell_resolution: 16}
probe: {trials: 3}
"""


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` wraps ``fn`` wherever homfem binds it and returns
    the list of the first positional argument of every call."""
    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if ((name == "homfem" or name.startswith("homfem."))
                    and getattr(module, fn.__name__, None) is fn):
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls
    return install


def test_uniqueness_probe_factors_twice(scenario_1d, count_calls):
    base, ahat, nl = scenario_1d
    eps = 1 / 16
    space = space_1d(round(16 / eps))
    cfg = SolverConfig()
    u0, _ = solve_homogenized(space, ahat, nl, cfg)
    te = base.with_epsilon(eps)
    u_eps, _ = fixed_point_solve(space, te, nl, u0, cfg)
    factored = count_calls(lu_factor)
    probe = local_uniqueness_probe(space, te, nl, u0, cfg, trials=5, seed=3,
                                   u_eps=u_eps)
    # A_eps for ubar, then A_eps + C(u0) shared by every restart
    assert len(factored) == 2
    assert probe.all_same and len(probe.statuses) == 5


def test_sweep_solves_the_effective_problem_once_per_eps(tmp_path,
                                                         count_calls):
    cfg = parse_config(CONFIG)
    solved = count_calls(solve_homogenized)
    summary = run_sweep(cfg, tmp_path)
    assert len(solved) == len(cfg.eps)
    assert summary["uniqueness"]["eps"] == cfg.eps[-1]
    assert summary["uniqueness"]["all_same"]


def test_linear_probes_factor_each_matrix_once(tmp_path, monkeypatch,
                                               count_calls):
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG)
    cfg = parse_config(CONFIG)
    # the cell problems are factored outside the probes: reuse their result
    effective = homfem.cli.compute_effective_tensor(cfg)
    monkeypatch.setattr(homfem.cli, "compute_effective_tensor",
                        lambda cfg_: effective)
    factored = count_calls(lu_factor)
    assert main(["probe", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "hconv.csv").exists()
    assert (tmp_path / "out" / "meyers.csv").exists()
    # per probe mesh: A_eps once, shared by both tables, and Ahat once
    assert len(factored) == 2 * len(cfg.eps)
    digests = {(A.matrix.shape, A.matrix.data.tobytes()) for A in factored}
    assert len(digests) == len(factored)


def test_newton_evaluates_the_flux_once_per_iterate(scenario_1d,
                                                    count_calls):
    _, ahat, nl = scenario_1d
    space = space_1d(128)
    evaluated = count_calls(eval_F)
    _, report = newton_solve(space, ahat, nl, SolverConfig())
    assert report.status == "converged" and report.iterations >= 2
    # the start's residual, then one per Newton iterate
    assert len(evaluated) == report.iterations + 1


def test_fixed_point_evaluates_the_flux_once_per_iterate(scenario_1d,
                                                         count_calls):
    base, ahat, nl = scenario_1d
    eps = 1 / 16
    space = space_1d(round(16 / eps))
    cfg = SolverConfig()
    u0, _ = solve_homogenized(space, ahat, nl, cfg)
    te = base.with_epsilon(eps)
    ubar = approximate_solution(space, te, nl, u0, cfg)
    evaluated = count_calls(eval_F)
    _, report = fixed_point_solve(space, te, nl, u0, cfg, start=ubar)
    assert report.status == "converged" and report.iterations >= 2
    # the start's load, then one load per iterate
    assert len(evaluated) == report.iterations + 1
