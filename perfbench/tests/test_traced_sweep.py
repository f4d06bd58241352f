"""Traced sweeps through the benchmark's own worker process."""

import json

import pytest

import spans
from run import run_worker, write_config


def _traced_sweep(name, seed, tmp_path):
    config = tmp_path / "config.yaml"
    write_config(name, seed, config)
    spans_path = tmp_path / "spans.json"
    with open(tmp_path / "worker.log", "w") as log:
        run_worker(["sweep", config, tmp_path / "out", spans_path], log)
    return json.loads(spans_path.read_text())


@pytest.fixture(scope="module")
def coupled_spans(tmp_path_factory):
    return _traced_sweep("sweep_2d_coupled", 0,
                         tmp_path_factory.mktemp("coupled"))


def test_traced_coupled_sweep_reaches_every_stage(coupled_spans):
    m = {k: v for k, (v, _) in spans.layer_metrics(coupled_spans).items()}
    for stage in ("cli.compute_effective_tensor", "cell.solve_cell_problems",
                  "solver.solve_homogenized", "solver.nondegeneracy_margin",
                  "solver.approximate_solution", "solver.fixed_point_solve",
                  "solver.local_uniqueness_probe", "norms.h_convergence_probe",
                  "norms.meyers_probe", "fem.lu_factor", "nonlin.eval_F",
                  "coeff.TensorField.evaluate", "fem.FemSpace"):
        assert any(s["name"] == stage for s in coupled_spans), stage
    assert m["fem.lu_factor.calls"] == 40
    assert m["solver.local_uniqueness_probe.trials"] == 10


def test_fixed_point_calls_inside_the_probe_are_traced(coupled_spans):
    by_id = {s["id"]: s for s in coupled_spans}
    probe = [s["id"] for s in coupled_spans
             if s["name"] == "solver.local_uniqueness_probe"]
    inside = [s for s in coupled_spans
              if s["name"] == "solver.fixed_point_solve"
              and s["parent"] in probe]
    # the reference run and one restart per trial
    assert len(inside) == 11
    assert all(by_id[s["parent"]]["name"] == "solver.local_uniqueness_probe"
               for s in inside)


def test_two_traced_runs_give_identical_counts(tmp_path):
    counts = []
    for k in range(2):
        run_dir = tmp_path / str(k)
        run_dir.mkdir()
        metrics = spans.layer_metrics(
            _traced_sweep("sweep_1d_ladder", 3, run_dir))
        counts.append({name: value for name, (value, unit) in metrics.items()
                       if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["fem.lu_factor.calls"] > 0
