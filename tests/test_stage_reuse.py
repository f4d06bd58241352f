"""Each pipeline stage computes its result once; later stages reuse it.

The counters wrap a homfem function at every homfem module that binds it
(``solver`` imports ``lu_factor`` from ``fem``, ``cli`` imports
``solve_homogenized`` from ``solver``), so every call is seen.
"""

import copy
import csv
import gc
import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
import yaml

import homfem.cli
import homfem.norms
from homfem.cell import solve_cell_problems
from homfem.cli import main, parse_config, run_single, run_sweep
from homfem.fem import (FemSpace, LinearSolveError, SineSolver,
                        assemble_diffusion, assemble_divergence_load,
                        assemble_jacobian_coupling, lu_factor, solve_linear)
from homfem.mesh import build_periodic_cell_mesh, build_unit_square_mesh
from homfem.nonlin import Constant, Monomial, Polynomial, eval_F, eval_F_jacobian
from homfem.norms import probe_load
from homfem.solver import (FrozenOperator, SolverConfig,
                           approximate_solution, fixed_point_solve,
                           local_uniqueness_probe, oscillatory_operator,
                           solve_homogenized)

from conftest import (assert_relative_close, bound_flux, coo_diffusion,
                      coupled_scenario_2d, effective_operator,
                      piecewise_14_tensor, space_1d)

CONFIGS = Path(__file__).parents[1] / "configs"

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

# a coupled 1D system: its matrices are block-tridiagonal, not tridiagonal
TWO_COMPONENT_1D = """
domain: interval
system_dim: 2
tensor:
  kind: expression
  entries:
    - [[["2 + cos(2*pi*x)"]], [["0.25"]]]
    - [[["0.25"]], [["3 + sin(2*pi*x)"]]]
nonlinearity:
  p0: 4.0
  terms:
    - target: [1, 1]
      g: "0.5*sin(2*pi*x)"
      h: {kind: constant}
    - target: [1, 1]
      g: "0.25"
      h: {kind: polynomial, monomials: [{coeff: 1.0, powers: [0, 2]}]}
eps: [0.125]
mesh: {cells_per_eps: 16, cell_resolution: 16}
probe: {trials: 3}
"""


def test_uniqueness_probe_factors_once(scenario_1d, count_calls):
    base, ahat, nl = scenario_1d
    eps = 1 / 16
    space = space_1d(round(16 / eps))
    cfg = SolverConfig()
    u0, _ = solve_homogenized(effective_operator(space, ahat), nl, cfg)
    A_eps = oscillatory_operator(space, base.with_epsilon(eps), cfg)
    factored = count_calls(lu_factor)
    frozen = FrozenOperator(A_eps, nl, u0)
    ubar = approximate_solution(frozen)
    u_eps, _ = fixed_point_solve(frozen, ubar, cfg)
    probe = local_uniqueness_probe(frozen, cfg, trials=5, seed=3,
                                   ubar=ubar, u_eps=u_eps)
    # only A_eps + C(u0): ubar refines over it, and the fixed point and
    # every restart iterate over it
    assert len(factored) == 1
    assert probe.all_same and len(probe.statuses) == 5


def test_converged_row_assembles_each_diffusion_operator_once(count_calls):
    cfg = parse_config(CONFIG)
    ahat, _ = homfem.cli.compute_effective_tensor(cfg)
    assembled = count_calls(assemble_diffusion)
    result = run_single(cfg, ahat, cfg.eps[0])
    assert result.row["status"] == "converged"
    assert set(result.fields) == {"u0", "ubar", "ueps"}
    # Ahat for Newton and the margin, A_eps for ubar and the frozen operator
    assert len(assembled) == 2


@pytest.mark.parametrize("text, eps", [
    (CONFIG, 0.125),
    ((CONFIGS / "coupled_2d.yaml").read_text(), 0.25),
], ids=["1d", "coupled_2d"])
def test_converged_row_assembles_each_coupling_once(monkeypatch, count_calls,
                                                    text, eps):
    cfg = parse_config(text)
    ahat, _ = homfem.cli.compute_effective_tensor(cfg)
    newton = []

    def recorded(*args, **kwargs):
        u0, report = solve_homogenized(*args, **kwargs)
        newton.append(report)
        return u0, report

    monkeypatch.setattr(homfem.cli, "solve_homogenized", recorded)
    assembled = count_calls(assemble_jacobian_coupling)
    result = run_single(cfg, ahat, eps)
    assert result.row["status"] == "converged"
    assert len(newton) == 1 and newton[0].iterations > 0
    # C(u_k) per Newton step, then C(u0) once, shared by the margin and
    # the frozen operator
    assert len(assembled) == newton[0].iterations + 1


def test_lu_factor_orders_for_less_fill_than_colamd():
    base, nl = coupled_scenario_2d()
    space = FemSpace(build_unit_square_mesh(16), 2)
    u0 = space.field_from_free(
        np.random.default_rng(0).uniform(-1.0, 1.0, space.num_free))
    frozen = (assemble_diffusion(space, base.with_epsilon(1 / 4))
              + assemble_jacobian_coupling(
                  space, eval_F_jacobian(nl, space, u0))).matrix
    ordered = lu_factor(frozen)
    assert isinstance(ordered, spla.SuperLU)
    colamd = spla.splu(frozen.tocsc())
    assert ordered.nnz < colamd.nnz
    rhs = np.arange(1.0, space.num_free + 1.0)
    x, y = ordered.solve(rhs), colamd.solve(rhs)
    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


@pytest.fixture
def lapack_factors(monkeypatch):
    """The LAPACK factorizations ``homfem.fem`` runs while the test runs,
    by routine name: "dgttrf" (tridiagonal) or "dgbtrf" (band)."""
    import homfem.fem

    calls = []

    def counting(name):
        routine = getattr(homfem.fem, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return counted

    for name in ("dgttrf", "dgbtrf"):
        monkeypatch.setattr(homfem.fem, name, counting(name))
    return calls


def test_1d_sweep_factors_without_superlu(tmp_path, count_calls,
                                          superlu_calls, lapack_factors):
    # every 1D matrix, the pinned cell matrix included, is banded, and a
    # scalar field's is tridiagonal
    cfg = parse_config((CONFIGS / "two_phase_1d.yaml").read_text())
    factored = count_calls(lu_factor)
    run_sweep(cfg, tmp_path)
    assert len(factored) > 0 and superlu_calls == []
    assert lapack_factors == ["dgttrf"] * len(factored)


def test_1d_system_sweep_factors_in_band_storage(tmp_path, count_calls,
                                                 superlu_calls,
                                                 lapack_factors):
    cfg = parse_config(TWO_COMPONENT_1D)
    factored = count_calls(lu_factor)
    summary = run_sweep(cfg, tmp_path)
    assert summary["uniqueness"]["all_same"]
    assert len(factored) > 0 and superlu_calls == []
    assert lapack_factors == ["dgbtrf"] * len(factored)


def test_2d_row_factors_every_matrix_with_superlu(count_calls, superlu_calls):
    cfg = parse_config((CONFIGS / "coupled_2d.yaml").read_text())
    factored = count_calls(lu_factor)
    ahat, _ = homfem.cli.compute_effective_tensor(cfg)
    result = run_single(cfg, ahat, 0.25)
    assert result.row["status"] == "converged"
    # with the row's probe, as a sweep on this config runs it
    probe = homfem.cli._probe_scale(cfg, ahat, 0.25, result.space,
                                    near=result.frozen.lu)
    assert probe.eps == 0.25
    assert len(superlu_calls) == len(factored) > 0


def test_coupled_sweep_factors_the_cell_and_two_linearizations_per_row(
        tmp_path, count_calls):
    doc = yaml.safe_load((CONFIGS / "coupled_2d.yaml").read_text())
    doc["eps"] = [0.25, 0.125]
    cfg = parse_config(yaml.safe_dump(doc))
    factored = count_calls(lu_factor)
    summary = run_sweep(cfg, tmp_path)
    assert summary["uniqueness"]["all_same"]
    # the cell problem, then per row Ahat + C(u0) for the margin and
    # A_eps + C(u0) for the fixed point; Newton and the in-row probe
    # refine over the sine transform of Ahat, ubar and the probe's A_eps
    # over A_eps + C(u0)
    assert len(factored) == 1 + 2 * len(cfg.eps)


def test_vertex_pattern_adds_no_fill():
    base, _ = coupled_scenario_2d()
    space = FemSpace(build_unit_square_mesh(16), 2)
    tensor = base.with_epsilon(1 / 4)
    A_eps = assemble_diffusion(space, tensor).matrix
    reference = coo_diffusion(space, tensor)
    # the midpoint A_eps is isotropic, a 5-point stencil inside 7-point
    # blocks: it stores the cancelled entries, and they must not reach the
    # LU ordering, so it fills in as the matrix without them does
    assert not A_eps.data.all()
    assert A_eps.nnz == reference.nnz
    reference.eliminate_zeros()
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


@pytest.mark.parametrize("text, factored_per_eps", [
    (CONFIG, 2),
    ((CONFIGS / "coupled_2d.yaml").read_text(), 1),
], ids=["1d", "coupled_2d"])
def test_linear_probes_factor_each_matrix_once(tmp_path, monkeypatch,
                                               count_calls, text,
                                               factored_per_eps):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    cfg = parse_config(text)
    # the cell problems are factored outside the probes: reuse their result
    effective = homfem.cli.compute_effective_tensor(cfg)
    monkeypatch.setattr(homfem.cli, "compute_effective_tensor",
                        lambda cfg_: effective)
    factored = count_calls(lu_factor)
    assert main(["probe", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "hconv.csv").exists()
    assert (tmp_path / "out" / "meyers.csv").exists()
    # per probe mesh: A_eps once, shared by both tables, and Ahat once in
    # 1D; a 2D Ahat solve refines over the sine transform
    assert len(factored) == factored_per_eps * len(cfg.eps)
    digests = {(A.shape, A.data.tobytes()) for A in factored}
    assert len(digests) == len(factored)


def test_spatial_factors_are_evaluated_once_per_space(scenario_1d):
    _, ahat, nl = scenario_1d
    evaluated = []

    def counted(g):
        def spatial(points):
            evaluated.append(g)
            return g(points)
        return spatial

    counting = copy.deepcopy(nl)
    for t, original in zip(counting.terms, nl.terms):
        t.spatial_factor = counted(original.spatial_factor)

    def solve(cells):
        space = space_1d(cells)
        _, report = solve_homogenized(effective_operator(space, ahat),
                                      counting)
        assert report.status == "converged" and report.iterations >= 2
        return [weakref.ref(space), *(
            weakref.ref(space.quadrature_values(t.spatial_factor))
            for t in counting.terms)]

    kept = solve(128) + solve(256)
    # one evaluation per term on each space, however many flux
    # evaluations and Jacobians its Newton iterates took
    assert Counter(evaluated) == Counter(
        2 * [t.spatial_factor for t in nl.terms])
    # and the values go with their space
    gc.collect()
    assert [ref() for ref in kept] == [None] * len(kept)


def test_newton_evaluates_the_flux_once_per_iterate(scenario_1d,
                                                    count_calls):
    _, ahat, nl = scenario_1d
    space = space_1d(128)
    evaluated = count_calls(eval_F)
    _, report = solve_homogenized(effective_operator(space, ahat), nl,
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
    frozen = FrozenOperator(A_eps, nl, u0)
    ubar = approximate_solution(frozen)
    evaluated = count_calls(eval_F)
    _, report = fixed_point_solve(frozen, ubar, cfg)
    assert report.status == "converged" and report.iterations >= 2
    # the start's load, then one load per iterate
    assert len(evaluated) == report.iterations + 1


def test_refined_solves_equal_direct_solves(count_calls):
    # the coupled 2D system on a 32 x 32 grid at eps = 1/4: ubar and the
    # probe's A_eps system refined over A_eps + C(u0), as a sweep row does,
    # and the probe's Ahat system over the sine transform of Ahat
    base, nl = coupled_scenario_2d()
    ahat = solve_cell_problems(base, build_periodic_cell_mesh(16, 2)).ahat
    space = FemSpace(build_unit_square_mesh(32), 2)
    A_hat = effective_operator(space, ahat)
    u0, report = solve_homogenized(A_hat, nl)
    assert report.status == "converged"
    tensor_eps = base.with_epsilon(1 / 4)
    A_eps = assemble_diffusion(space, tensor_eps)
    probe_space = space.with_quadrature("3point")
    load = probe_load(probe_space)
    A_eps_probe = assemble_diffusion(probe_space, tensor_eps)
    direct = {
        "ubar": solve_linear(A_eps, -assemble_divergence_load(
            space, eval_F(nl, space, u0))),
        "probe Ahat": solve_linear(
            effective_operator(probe_space, ahat), -load),
        "probe A_eps": solve_linear(A_eps_probe, -load),
    }
    frozen = FrozenOperator(A_eps, nl, u0)
    factored = count_calls(lu_factor)
    refined = {
        "ubar": approximate_solution(frozen),
        "probe Ahat": solve_linear(A_hat, -load,
                                   near=SineSolver(space, ahat.values)),
        "probe A_eps": solve_linear(A_eps_probe, -load, near=frozen.lu),
    }
    assert factored == []
    for name, u in refined.items():
        assert_relative_close(u.free(), direct[name].free(), 1e-12)


def test_lu_that_does_not_contract_falls_back_to_one_factorization(
        count_calls):
    # a coupling far stronger than the diffusion: the refinement's
    # iteration matrix (A + C)^{-1} C has spectral radius about 2
    space = space_1d(64)
    A_eps = assemble_diffusion(space, piecewise_14_tensor().with_epsilon(1 / 8))
    nl = bound_flux(1, 1, ([1, 1], "200*(x - 0.5)",
                           Polynomial([Monomial(1.0, [1])])),
                    ([1, 1], "sin(2*pi*x)", Constant(1.0)))
    u0 = space.zero_field()
    frozen = FrozenOperator(A_eps, nl, u0)
    C, M = frozen.C.matrix.toarray(), (A_eps + frozen.C).matrix.toarray()
    assert max(abs(np.linalg.eigvals(np.linalg.solve(M, C)))) > 1
    factored = count_calls(lu_factor)
    ubar = approximate_solution(frozen)
    assert len(factored) == 1 and factored[0] is A_eps.matrix
    direct = solve_linear(A_eps, -assemble_divergence_load(
        space, eval_F(nl, space, u0)))
    np.testing.assert_array_equal(ubar.values, direct.values)


def test_sweep_on_the_probe_mesh_factors_nothing_for_ubar_or_the_probe(
        tmp_path, monkeypatch, count_calls):
    cfg = parse_config(CONFIG.replace("cells_per_eps: 16", "cells_per_eps: 8"))
    assert cfg.mesh.cells_per_eps == cfg.probe.cells_per_eps
    factored = count_calls(lu_factor)
    during = {"approximate_solution": [], "h_convergence_probe": []}

    def counted(name):
        stage = getattr(homfem.cli, name)

        def run(*args, **kwargs):
            before = len(factored)
            result = stage(*args, **kwargs)
            during[name].append(len(factored) - before)
            return result
        monkeypatch.setattr(homfem.cli, name, run)

    for name in during:
        counted(name)
    run_sweep(cfg, tmp_path)
    # each row's ubar and probe refine over the row's two linearizations
    assert during["approximate_solution"] == [0] * len(cfg.eps)
    assert len(during["h_convergence_probe"]) >= len(cfg.eps)
    assert not any(during["h_convergence_probe"])
    assert len(factored) > 0


def _probe_loads_per_mesh(count_calls):
    """Cells of the 3-point space of every ``assemble_divergence_load``
    call, counted per mesh size: the probe's loads."""
    calls = count_calls(assemble_divergence_load)

    def per_mesh():
        cells = [space.mesh.num_cells for space in calls
                 if space.quad.name == "3point"]
        return {n: cells.count(n) for n in cells}
    return per_mesh


def test_probe_command_builds_one_load_per_eps(tmp_path, count_calls):
    config = CONFIGS / "two_phase_1d.yaml"
    cfg = parse_config(config.read_text())
    loads = _probe_loads_per_mesh(count_calls)
    assert main(["probe", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    assert loads() == {cfg.build_probe_space(eps).mesh.num_cells: 1
                       for eps in cfg.eps}


def test_in_row_probe_builds_one_load_per_eps(tmp_path, monkeypatch,
                                              count_calls):
    # the coupled config probes each period on its row's space; its two
    # coarsest periods
    cfg = parse_config((CONFIGS / "coupled_2d.yaml").read_text())
    cfg.eps = cfg.eps[:2]
    during = []
    loads = _probe_loads_per_mesh(count_calls)

    def counted(name):
        stage = getattr(homfem.cli, name)

        def run(*args, **kwargs):
            result = stage(*args, **kwargs)
            during.append(loads())
            return result
        monkeypatch.setattr(homfem.cli, name, run)

    counted("run_single")
    counted("_probe_scale")
    run_sweep(cfg, tmp_path)
    cells = [cfg.build_domain_space(eps).mesh.num_cells
             for eps in reversed(cfg.eps)]
    # a row builds no probe load; its probe builds its own period's, and
    # no scale is left over
    assert during == [{}, {cells[0]: 1},
                      {cells[0]: 1}, {cells[0]: 1, cells[1]: 1}]
    assert loads() == during[-1]


def _numeric_rows(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _statuses(path):
    with open(path, newline="") as fh:
        return [row["status"] for row in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def coupled_probe_out(tmp_path_factory):
    """``homfem probe`` on the coupled config, which factors every probe
    ``A_eps`` and refines each ``Ahat`` solve over the sine transform."""
    out = tmp_path_factory.mktemp("probe")
    assert main(["probe", "--config", str(CONFIGS / "coupled_2d.yaml"),
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("finest_fails", [False, True])
def test_sweep_and_probe_tables_agree_on_the_coupled_config(
        tmp_path, monkeypatch, coupled_probe_out, finest_fails):
    # the sweep probes each eps on its row's space, refined over Ahat's sine
    # transform and the row's A_eps + C(u0); when the finest row's Newton
    # solve fails, that eps is probed after the rows on its own probe
    # space, as the probe command does
    config = CONFIGS / "coupled_2d.yaml"
    cfg = parse_config(config.read_text())
    if finest_fails:
        finest = cfg.build_domain_space(cfg.eps[-1]).mesh.num_cells
        newton = homfem.cli.solve_homogenized

        def failing_finest(A_hat, *args, **kwargs):
            if A_hat.space.mesh.num_cells == finest:
                raise RuntimeError("synthetic Newton failure")
            return newton(A_hat, *args, **kwargs)

        monkeypatch.setattr(homfem.cli, "solve_homogenized", failing_finest)
    assert main(["sweep", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    statuses = _statuses(tmp_path / "sweep.csv")
    assert (statuses[-1] == "error-RuntimeError") == finest_fails
    # every probe ran, so the summary carries no probe_errors
    assert "probe_errors" not in json.loads(
        (tmp_path / "summary.json").read_text())
    for name in ("hconv.csv", "meyers.csv"):
        swept = _numeric_rows(tmp_path / name)
        probed = _numeric_rows(coupled_probe_out / name)
        assert len(swept) == len(probed) > 0
        # both tables keep the config's eps order
        assert sorted({r["eps"] for r in swept}, reverse=True) == cfg.eps
        for a, b in zip(swept, probed):
            assert a.keys() == b.keys()
            for key in a:
                assert abs(a[key] - b[key]) <= 1e-9 * abs(b[key]), (name, key)


def _probe_failing_at(monkeypatch, eps):
    """Make every linear probe at ``eps`` raise as it assembles its
    ``A_eps``, in a row or on its own probe space."""
    assemble = homfem.norms.assemble_diffusion

    def failing(space, tensor):
        if tensor.epsilon == eps:
            raise LinearSolveError("synthetic probe failure")
        return assemble(space, tensor)

    monkeypatch.setattr(homfem.norms, "assemble_diffusion", failing)


@pytest.mark.parametrize("cells_per_eps", [8, 16],
                         ids=["in-row", "standalone"])
def test_probe_failure_is_recorded_and_the_sweep_completes(
        tmp_path, monkeypatch, cells_per_eps):
    cfg = parse_config(CONFIG.replace("cells_per_eps: 16",
                                      f"cells_per_eps: {cells_per_eps}"))
    failed, kept = cfg.eps
    _probe_failing_at(monkeypatch, failed)
    summary = run_sweep(cfg, tmp_path)
    # the rows are untouched by their probe's failure
    statuses = _statuses(tmp_path / "sweep.csv")
    assert statuses == ["converged", "converged"]
    # the failed eps is left out of both tables and named in the summary
    for name in ("hconv.csv", "meyers.csv"):
        assert {r["eps"] for r in _numeric_rows(tmp_path / name)} == {kept}
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["probe_errors"] == {
        repr(failed): "error-LinearSolveError: synthetic probe failure"}
    assert summary["probe_errors"] == {
        failed: "error-LinearSolveError: synthetic probe failure"}
    assert "uniqueness" in doc and "rate" in doc
    assert f"linear probe at eps={failed:g} failed" in (
        tmp_path / "run.log").read_text()


def test_probe_command_records_a_failed_eps_and_returns_1(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG)
    failed, kept = parse_config(CONFIG).eps
    _probe_failing_at(monkeypatch, failed)
    out = tmp_path / "out"
    assert main(["probe", "--config", str(path), "--out", str(out)]) == 1
    for name in ("hconv.csv", "meyers.csv"):
        assert {r["eps"] for r in _numeric_rows(out / name)} == {kept}
    # the log names the probe step that raised
    assert f"linear probe at eps={failed:g} failed in h_convergence_probe" in (
        out / "run.log").read_text()

