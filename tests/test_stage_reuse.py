"""Each pipeline stage computes its result once; later stages reuse it.

The counters wrap a homfem function at every homfem module that binds it
(``solver`` imports ``lu_factor`` from ``fem``, ``cli`` imports
``solve_homogenized`` from ``solver``), so every call is seen.
"""

import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import homfem.cli
from homfem.cli import main, parse_config, run_single, run_sweep
from homfem.fem import (FemSpace, assemble_diffusion,
                        assemble_jacobian_coupling, lu_factor)
from homfem.mesh import build_unit_square_mesh
from homfem.nonlin import eval_F, eval_F_jacobian
from homfem.solver import (FrozenOperator, SolverConfig,
                           approximate_solution, fixed_point_solve,
                           local_uniqueness_probe, newton_solve,
                           oscillatory_operator, solve_homogenized)

from conftest import (coo_diffusion, coupled_scenario_2d, effective_operator,
                      space_1d)

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


def test_uniqueness_probe_factors_once(scenario_1d, count_calls):
    base, ahat, nl = scenario_1d
    eps = 1 / 16
    space = space_1d(round(16 / eps))
    cfg = SolverConfig()
    u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
    A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
    ubar = approximate_solution(A_eps, nl, u0)
    factored = count_calls(lu_factor)
    frozen = FrozenOperator(A_eps, nl, u0)
    u_eps, _ = fixed_point_solve(frozen, ubar, cfg)
    probe = local_uniqueness_probe(frozen, cfg, trials=5, seed=3,
                                   ubar=ubar, u_eps=u_eps)
    # the caller's ubar: only A_eps + C(u0), shared by the fixed point and
    # every restart
    assert len(factored) == 1
    assert probe.all_same and len(probe.statuses) == 5


def test_converged_row_assembles_each_diffusion_operator_once(count_calls):
    cfg = parse_config(CONFIG)
    ahat, _ = homfem.cli.compute_effective_tensor(cfg)
    assembled = count_calls(assemble_diffusion)
    row, _, fields, _ = run_single(cfg, ahat, cfg.eps[0])
    assert row["status"] == "converged" and set(fields) == {"u0", "ubar",
                                                            "ueps"}
    # Ahat for Newton and the margin, A_eps for ubar and the frozen operator
    assert len(assembled) == 2


def test_lu_factor_orders_for_less_fill_than_colamd():
    base, nl = coupled_scenario_2d()
    space = FemSpace(build_unit_square_mesh(16), 2)
    u0 = space.field_from_free(
        np.random.default_rng(0).uniform(-1.0, 1.0, space.num_free))
    frozen = (assemble_diffusion(space, base.with_epsilon(1 / 4))
              + assemble_jacobian_coupling(
                  space, eval_F_jacobian(nl, space, u0))).matrix
    ordered = lu_factor(frozen)
    colamd = spla.splu(frozen.tocsc())
    assert ordered.nnz < colamd.nnz
    rhs = np.arange(1.0, space.num_free + 1.0)
    x, y = ordered.solve(rhs), colamd.solve(rhs)
    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


def test_vertex_pattern_adds_no_fill():
    base, _ = coupled_scenario_2d()
    space = FemSpace(build_unit_square_mesh(16), 2)
    tensor = base.with_epsilon(1 / 4)
    A_eps = assemble_diffusion(space, tensor).matrix
    reference = coo_diffusion(space, tensor)
    # the midpoint A_eps is isotropic, a 5-point stencil inside 7-point
    # blocks: the cancelled entries must not reach the LU ordering
    assert (A_eps.data != 0).all()
    assert A_eps.nnz == reference.nnz
    assert lu_factor(A_eps).nnz == lu_factor(reference).nnz


def test_sweep_solves_the_effective_problem_once_per_eps(tmp_path,
                                                         count_calls):
    cfg = parse_config(CONFIG)
    solved = count_calls(solve_homogenized)
    summary = run_sweep(cfg, tmp_path)
    assert len(solved) == len(cfg.eps)
    assert summary["uniqueness"]["eps"] == cfg.eps[-1]
    assert summary["uniqueness"]["all_same"]


def test_sweep_probe_factors_nothing(tmp_path, monkeypatch, count_calls):
    cfg = parse_config(CONFIG)
    factored = count_calls(lu_factor)
    during_probe = []
    probe = homfem.cli.local_uniqueness_probe

    def counted_probe(*args, **kwargs):
        before = len(factored)
        report = probe(*args, **kwargs)
        during_probe.append(len(factored) - before)
        return report

    monkeypatch.setattr(homfem.cli, "local_uniqueness_probe", counted_probe)
    summary = run_sweep(cfg, tmp_path)
    # one probe, over its row's frozen operator, factored by the fixed point
    assert during_probe == [0]
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
    _, report = newton_solve(effective_operator(space, ahat), nl,
                             SolverConfig())
    assert report.status == "converged" and report.iterations >= 2
    # the start's residual, then one per Newton iterate
    assert len(evaluated) == report.iterations + 1


def test_fixed_point_evaluates_the_flux_once_per_iterate(scenario_1d,
                                                         count_calls):
    base, ahat, nl = scenario_1d
    eps = 1 / 16
    space = space_1d(round(16 / eps))
    cfg = SolverConfig()
    u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
    A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
    ubar = approximate_solution(A_eps, nl, u0)
    frozen = FrozenOperator(A_eps, nl, u0)
    evaluated = count_calls(eval_F)
    _, report = fixed_point_solve(frozen, ubar, cfg)
    assert report.status == "converged" and report.iterations >= 2
    # the start's load, then one load per iterate
    assert len(evaluated) == report.iterations + 1
