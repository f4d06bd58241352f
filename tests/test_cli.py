import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from conftest import config_key_paths
from homfem.cli import (ConfigError, ProblemConfig, load_schema, main,
                        parse_config, run_sweep)

CONFIGS = Path(__file__).parents[1] / "configs"

MINIMAL = """
domain: interval
tensor:
  kind: piecewise
  grid: [2]
  values: [1.0, 4.0]
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
mesh:
  cells_per_eps: 16
  cell_resolution: 16
"""


def _read_csv(path, schema_name):
    schema = load_schema(schema_name)
    names = [c["name"] for c in schema["columns"]]
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == names
    return [dict(zip(names, r)) for r in rows[1:]]


# every top-level key, and every key of the nonlinearity, mesh, solver and
# probe sections
_MUTABLE_KEYS = list(config_key_paths(ProblemConfig()))
# YAML sources: wrong types, values out of range, and scalars PyYAML reads
# as strings (1e-9, 1e3) or as non-finite floats
_MUTATED_VALUES = ["abc", "1e-9", "1e3", ".inf", "-.inf", ".nan", "0", "-1",
                   "-0.5", "0.5", "2", "3.7", "null", "true", "[]",
                   "[1, abc]", "[0.5, 0.25]", "{a: 1}", "{}"]


class TestParseConfig:
    def test_minimal_with_defaults_filled(self):
        cfg = parse_config(MINIMAL)
        assert cfg.domain == "interval"
        assert cfg.quadrature == "midpoint"
        assert cfg.solver.newton_tol == 1e-10
        assert cfg.solver.fp_tol == 1e-9
        assert cfg.seed == 0
        assert cfg.probe.trials == 10
        assert not cfg.warnings

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="meshh"):
            parse_config(MINIMAL + "\nmeshh: {}\n")

    def test_unknown_nested_key_named(self):
        bad = MINIMAL.replace("cells_per_eps: 16", "cells_per_epss: 16")
        with pytest.raises(ConfigError, match="cells_per_epss"):
            parse_config(bad)

    def test_eps_must_decrease(self):
        bad = MINIMAL.replace("eps: [0.125, 0.0625]", "eps: [0.0625, 0.125]")
        with pytest.raises(ConfigError, match="strictly decreasing"):
            parse_config(bad)

    def test_eps_range_checked(self):
        bad = MINIMAL.replace("eps: [0.125, 0.0625]", "eps: [2.0, 1.0]")
        with pytest.raises(ConfigError, match=r"\(0, 1\]"):
            parse_config(bad)

    def test_2d_nontriangular_accepted_without_warning(self):
        text = """
domain: unit-square
system_dim: 2
tensor:
  kind: constant
  value: 2.0
eps: [0.25]
"""
        cfg = parse_config(text)
        assert cfg.dim == 2
        assert not any("triangular" in w for w in cfg.warnings)

    def test_1d_system_nontriangular_warns_but_parses(self):
        text = """
domain: interval
system_dim: 2
tensor:
  kind: constant
  value: [[2.0, 0.3], [0.3, 2.0]]
eps: [0.25]
"""
        cfg = parse_config(text)
        assert any("triangular" in w for w in cfg.warnings)

    @pytest.mark.parametrize("key, text", [
        ("probe.trials", MINIMAL + "probe: {trials: 0}\n"),
        ("probe.modes", MINIMAL + "probe: {modes: 0}\n"),
        ("mesh.cell_resolution",
         MINIMAL.replace("cell_resolution: 16", "cell_resolution: 1")),
        ("mesh.cells_per_eps",
         MINIMAL.replace("cells_per_eps: 16", "cells_per_eps: 0")),
        ("probe.p_grid", MINIMAL + "probe: {p_grid: [2.0, 5.0]}\n"),
        ("probe.p_grid", MINIMAL + "probe: {p_grid: [1.5]}\n"),
        ("probe.p_grid", MINIMAL + "probe: {p_grid: []}\n"),
        ("probe.cells_per_eps", MINIMAL + "probe: {cells_per_eps: 0}\n"),
        ("seed", MINIMAL + "seed: -1\n"),
        ("solver.newton_tol", MINIMAL + "solver: {newton_tol: 0}\n"),
        ("solver.newton_max_iter", MINIMAL + "solver: {newton_max_iter: 0}\n"),
        ("solver.fp_tol", MINIMAL + "solver: {fp_tol: 0}\n"),
        ("solver.fp_max_iter", MINIMAL + "solver: {fp_max_iter: 0}\n"),
        ("solver.delta", MINIMAL + "solver: {delta: 0}\n"),
        ("solver.delta", MINIMAL + "solver: {delta: -0.5}\n"),
        ("solver.mesh_ratio", MINIMAL + "solver: {mesh_ratio: 0}\n"),
        ("solver.fp_tol", MINIMAL + "solver: {fp_tol: tight}\n"),
        ("solver.newton_max_iter", MINIMAL + "solver: {newton_max_iter: 1e3}\n"),
        ("system_dim", MINIMAL + "system_dim: 0\n"),
        ("probe.trials", MINIMAL + "probe: {trials: 2.5}\n"),
        ("eps", MINIMAL.replace("eps: [0.125, 0.0625]", "eps: 0.125")),
        # booleans are not numbers, NaN is not a value, output is a path
        ("seed", MINIMAL + "seed: true\n"),
        ("solver.newton_tol", MINIMAL + "solver: {newton_tol: true}\n"),
        ("mesh.cells_per_eps",
         MINIMAL.replace("cells_per_eps: 16", "cells_per_eps: true")),
        ("probe.trials", MINIMAL + "probe: {trials: true}\n"),
        ("eps", MINIMAL.replace("eps: [0.125, 0.0625]", "eps: [true]")),
        ("output", MINIMAL + "output: null\n"),
        ("output", MINIMAL + "output: [a, b]\n"),
        ("nonlinearity.p0", MINIMAL.replace("p0: 4.0", "p0: .nan")),
        ("nonlinearity.p0", MINIMAL.replace("p0: 4.0", "p0: abc")),
    ])
    def test_out_of_range_key_named(self, key, text):
        with pytest.raises(ConfigError, match=key):
            parse_config(text)

    @pytest.mark.parametrize("target", ["[1, 3]", "[0, 1]", "[1.5, 1]",
                                        "[2, 1]", "[1]", "1"])
    def test_flux_target_outside_the_index_range_named(self, target):
        # every term of the shipped 1D config targets the only flux entry
        text = (CONFIGS / "two_phase_1d.yaml").read_text()
        bad = text.replace("target: [1, 1]", f"target: {target}", 1)
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert "nonlinearity.terms[0].target" in str(info.value)
        assert target in str(info.value)

    def test_float_without_decimal_point_parses(self):
        # PyYAML reads 1e-9 (no decimal point) as a string
        cfg = parse_config(MINIMAL + "solver: {fp_tol: 1e-9, mesh_ratio: 8e0,"
                                     " fp_max_iter: 40.0}\n")
        assert cfg.solver.fp_tol == 1e-9 and cfg.solver.mesh_ratio == 8.0
        assert cfg.solver.fp_max_iter == 40
        assert isinstance(cfg.solver.fp_max_iter, int)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(key=st.sampled_from(_MUTABLE_KEYS),
           value=st.sampled_from(_MUTATED_VALUES))
    def test_one_changed_key_parses_or_is_named(self, key, value):
        doc = yaml.safe_load(MINIMAL)
        *sections, name = key.split(".")
        target = doc
        for section in sections:
            target = target.setdefault(section, {})
        target[name] = yaml.safe_load(value)
        try:
            parse_config(yaml.safe_dump(doc))
        except ConfigError:
            pass

    def test_effective_dict_echoes_defaults(self):
        cfg = parse_config(MINIMAL)
        doc = cfg.effective_dict()
        assert doc["quadrature"] == "midpoint"
        assert doc["solver"]["fp_max_iter"] == 50
        assert doc["probe"]["trials"] == 10

    @pytest.mark.parametrize("name", ["two_phase_1d", "coupled_2d"])
    def test_effective_dict_is_a_config(self, name):
        # the effective config that run.log records parses back to itself
        cfg = parse_config((CONFIGS / f"{name}.yaml").read_text())
        doc = cfg.effective_dict()
        del doc["warnings"]
        assert parse_config(yaml.safe_dump(doc)) == cfg


# value factors of the flux catalog; under the strong spatial factor the
# effective Newton solve reaches the pole of the rational one, -1/(1 - u)
_H_FACTORS = [
    {"kind": "constant"},
    {"kind": "polynomial", "monomials": [{"coeff": 1.0, "powers": [2]}]},
    {"kind": "sin", "coeffs": [1.0]},
    {"kind": "cos", "coeffs": [0.5], "shift": 0.2},
    {"kind": "exp", "coeffs": [0.5]},
    {"kind": "rational", "numerator": [{"coeff": -1.0, "powers": [0]}],
     "denominator": [{"coeff": 1.0, "powers": [0]},
                     {"coeff": -1.0, "powers": [1]}]},
]
_OUTPUTS = ("ahat.json", "sweep.csv", "hconv.csv", "meyers.csv",
            "summary.json", "run.log")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(eps=st.lists(st.sampled_from([0.5, 0.25, 0.125]), min_size=1,
                    max_size=2),
       cells_per_eps=st.integers(1, 16), cell_resolution=st.integers(2, 16),
       trials=st.integers(1, 2),
       terms=st.lists(st.fixed_dictionaries({
           "target": st.just([1, 1]),
           "g": st.sampled_from(["0.25", "0.5*sin(2*pi*x)",
                                 "5*sin(2*pi*x)"]),
           "h": st.sampled_from(_H_FACTORS)}), min_size=1, max_size=2))
@example(eps=[0.5, 0.25], cells_per_eps=8, cell_resolution=8, trials=1,
         terms=[{"target": [1, 1], "g": "5*sin(2*pi*x)",
                 "h": _H_FACTORS[-1]}])
def test_small_config_fails_at_parse_or_writes_every_output(
        eps, cells_per_eps, cell_resolution, trials, terms):
    doc = yaml.safe_load(MINIMAL)
    doc.update(eps=eps, nonlinearity={"p0": 4.0, "terms": terms},
               mesh={"cells_per_eps": cells_per_eps,
                     "cell_resolution": cell_resolution},
               probe={"trials": trials})
    try:
        cfg = parse_config(yaml.safe_dump(doc))
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        run_sweep(cfg, out)
        assert all((Path(out) / name).exists() for name in _OUTPUTS)
        assert len(_read_csv(Path(out) / "sweep.csv", "sweep")) == len(eps)


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = parse_config(MINIMAL)
    summary = run_sweep(cfg, out)
    return out, summary


class TestRunSweep:

    def test_row_per_eps(self, sweep_out):
        out, _ = sweep_out
        rows = _read_csv(out / "sweep.csv", "sweep")
        assert len(rows) == 2
        assert [float(r["eps"]) for r in rows] == [0.125, 0.0625]

    def test_rows_converged_and_decreasing(self, sweep_out):
        out, _ = sweep_out
        rows = _read_csv(out / "sweep.csv", "sweep")
        assert all(r["status"] == "converged" for r in rows)
        errs = [float(r["ueps_err_linf"]) for r in rows]
        assert errs[1] < errs[0]

    def test_summary_has_rate_and_uniqueness(self, sweep_out):
        out, summary = sweep_out
        doc = json.loads((out / "summary.json").read_text())
        assert "rate" in doc and "slope" in doc["rate"]
        assert doc["uniqueness"]["all_same"] is True
        assert summary["rate"]["slope"] == doc["rate"]["slope"]

    def test_probe_tables_written(self, sweep_out):
        out, _ = sweep_out
        hrows = _read_csv(out / "hconv.csv", "hconv")
        assert len(hrows) == 2
        mrows = _read_csv(out / "meyers.csv", "meyers")
        assert len(mrows) == 2 * 5

    def test_ahat_json(self, sweep_out):
        out, _ = sweep_out
        doc = json.loads((out / "ahat.json").read_text())
        assert abs(doc["values"][0][0][0][0] - 1.6) < 1e-9

    def test_run_log_written(self, sweep_out):
        out, _ = sweep_out
        text = (out / "run.log").read_text()
        assert "effective config" in text

    def test_deterministic_rerun(self, tmp_path):
        cfg = parse_config(MINIMAL)
        run_sweep(cfg, tmp_path / "a")
        run_sweep(cfg, tmp_path / "b")
        for name in ("sweep.csv", "hconv.csv", "meyers.csv", "summary.json",
                     "ahat.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()


class TestDefectConfig:
    DEFECT = MINIMAL + """
defect:
  kind: piecewise
  grid: [4]
  values: [0.0, 0.5, 0.0, 0.0]
"""

    def test_defect_config_parses_and_runs(self, tmp_path):
        cfg = parse_config(self.DEFECT)
        cfg.eps = [0.125]
        summary = run_sweep(cfg, tmp_path)
        rows = _read_csv(tmp_path / "sweep.csv", "sweep")
        assert rows[0]["status"] == "converged"
        # the effective tensor ignores the localized perturbation
        doc = json.loads((tmp_path / "ahat.json").read_text())
        assert abs(doc["values"][0][0][0][0] - 1.6) < 1e-9

    def test_defect_built_once_per_run(self, tmp_path, monkeypatch):
        # the localization and margin checks of add_defect run at parse
        # time only; every stage of the sweep reuses the parsed coefficient
        import homfem.cli as cli
        calls, original = [], cli.add_defect
        monkeypatch.setattr(cli, "add_defect", lambda *args, **kwargs: (
            calls.append(args) or original(*args, **kwargs)))
        cfg = parse_config(self.DEFECT)
        run_sweep(cfg, tmp_path)
        assert len(cfg.eps) == 2
        assert len(calls) == 1

    def test_non_localized_defect_rejected(self):
        bad = MINIMAL + """
defect:
  kind: constant
  value: 0.5
"""
        with pytest.raises(ConfigError, match="localization"):
            parse_config(bad)


class TestFailureRows:
    def test_stage_failure_recorded_in_row_and_sweep_continues(self, tmp_path):
        # a rational flux with a reachable pole: the solve blows past the
        # pole for the larger period but the other rows still complete
        text = """
domain: interval
tensor: {kind: piecewise, grid: [2], values: [1.0, 4.0]}
nonlinearity:
  p0: 4.0
  terms:
    - target: [1, 1]
      g: "5*sin(2*pi*x)"
      h: {kind: constant}
eps: [0.5, 0.125]
mesh: {cells_per_eps: 16, cell_resolution: 16}
"""
        cfg = parse_config(text)

        # sabotage a single period by requesting an impossible mesh rule
        import homfem.cli as cli
        original = cli.run_single

        def flaky(cfg_, ahat_, eps_, **kw):
            if eps_ == 0.5:
                raise RuntimeError("synthetic stage failure")
            return original(cfg_, ahat_, eps_, **kw)

        cli.run_single, saved = flaky, original
        try:
            run_sweep(cfg, tmp_path)
        finally:
            cli.run_single = saved
        rows = _read_csv(tmp_path / "sweep.csv", "sweep")
        assert rows[0]["status"] == "error-RuntimeError"
        assert rows[1]["status"] == "converged"

    def test_failed_finest_row_moves_the_probe_to_the_next_row(
            self, tmp_path, monkeypatch):
        # rows run finest-first, so the probe takes the first converged
        # row after the failed one; sweep.csv keeps config order
        import homfem.cli as cli
        cfg = parse_config(MINIMAL)
        original = cli.run_single

        def failing_finest(cfg_, ahat_, eps_):
            if eps_ == cfg.eps[-1]:
                raise RuntimeError("synthetic stage failure")
            return original(cfg_, ahat_, eps_)

        monkeypatch.setattr(cli, "run_single", failing_finest)
        summary = run_sweep(cfg, tmp_path)
        assert summary["uniqueness"]["eps"] == cfg.eps[-2]
        rows = _read_csv(tmp_path / "sweep.csv", "sweep")
        assert [float(r["eps"]) for r in rows] == cfg.eps
        assert rows[-1]["status"] == "error-RuntimeError"
        assert all(r["status"] == "converged" for r in rows[:-1])

    def test_probe_trial_with_unevaluable_start_is_recorded(self, tmp_path):
        # a uniqueness radius of 2000 puts the perturbed starts where
        # exp(u) overflows: each trial's flux fails before its first step,
        # and the trial lands in the summary instead of ending the sweep
        text = """
domain: interval
tensor: {kind: piecewise, grid: [2], values: [1.0, 4.0]}
nonlinearity:
  p0: 4.0
  terms:
    - target: [1, 1]
      g: "0.5*sin(2*pi*x)"
      h: {kind: constant}
    - target: [1, 1]
      g: "0.01"
      h: {kind: exp, coeffs: [1.0]}
eps: [0.125, 0.0625]
mesh: {cells_per_eps: 16, cell_resolution: 64}
solver: {delta: 2000}
seed: 0
"""
        path = tmp_path / "config.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        for name in ("ahat.json", "sweep.csv", "hconv.csv", "meyers.csv",
                     "summary.json"):
            assert (out / name).exists(), name
        uniqueness = json.loads((out / "summary.json").read_text())[
            "uniqueness"]
        assert not uniqueness["all_same"]
        assert "diverged" in uniqueness["statuses"]

    def test_malformed_nonlinearity_rejected_at_parse(self):
        bad = MINIMAL.replace("kind: polynomial",
                              "kind: polynomiall")
        with pytest.raises(ConfigError, match="polynomiall"):
            parse_config(bad)


class TestQuadratureConfig:
    def test_3point_rule_runs(self, tmp_path):
        from homfem.cli import compute_effective_tensor, run_single
        cfg = parse_config(MINIMAL + "\nquadrature: 3point\n")
        assert cfg.quadrature == "3point"
        ahat, _ = compute_effective_tensor(cfg)
        row, _, _, _ = run_single(cfg, ahat, 0.125)
        assert row["status"] == "converged"


class TestSchemas:
    def test_all_columns_documented(self):
        for name in ("sweep", "hconv", "meyers", "solution"):
            schema = load_schema(name)
            for col in schema["columns"]:
                assert col["name"] and col["description"]


class TestMain:
    def _write_cfg(self, tmp_path):
        path = tmp_path / "prob.yaml"
        path.write_text(MINIMAL)
        return path

    def test_homogenize_command(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        assert main(["homogenize", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "ahat.json").read_text())
        assert abs(doc["values"][0][0][0][0] - 1.6) < 1e-9

    def test_solve_command(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg), "--eps", "0.125",
                     "--out", str(tmp_path / "o")]) == 0
        row = json.loads((tmp_path / "o" / "solve.json").read_text())
        assert row["status"] == "converged"
        rows = _read_csv(tmp_path / "o" / "solution.csv", "solution")
        assert len(rows) == 129  # 128 cells -> 129 vertices, one component

    def test_solve_stage_failure_recorded(self, tmp_path):
        # h = 1/u has its pole at the Newton start u = 0: the solve ends in
        # a status, as the same row of a sweep does, not in a traceback
        path = tmp_path / "pole.yaml"
        path.write_text("""
domain: interval
tensor: {kind: piecewise, grid: [2], values: [1.0, 4.0]}
nonlinearity:
  terms:
    - target: [1, 1]
      g: "0.5"
      h: {kind: rational, numerator: [{coeff: 1.0, powers: [0]}],
          denominator: [{coeff: 1.0, powers: [1]}]}
eps: [0.125]
mesh: {cells_per_eps: 16, cell_resolution: 16}
""")
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out)]) != 0
        row = json.loads((out / "solve.json").read_text())
        assert row["status"] == "error-ValueError"
        assert _read_csv(out / "solution.csv", "solution") == []

    @pytest.mark.parametrize("eps", ["0", "-0.5", "nan", "1.5"])
    def test_eps_override_out_of_range_named(self, tmp_path, monkeypatch,
                                             eps):
        import homfem.cli as cli

        def no_cell_problems(cfg_):
            raise AssertionError("cell problems ran")

        monkeypatch.setattr(cli, "compute_effective_tensor", no_cell_problems)
        cfg = self._write_cfg(tmp_path)
        with pytest.raises(ConfigError, match="--eps"):
            main(["solve", "--config", str(cfg), "--eps", eps,
                  "--out", str(tmp_path / "o")])

    def test_negative_seed_override_named(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        with pytest.raises(ConfigError, match="--seed"):
            main(["homogenize", "--config", str(cfg), "--seed", "-1",
                  "--out", str(tmp_path / "o")])

    def test_sweep_logs_each_warning_once(self, tmp_path, capsys):
        # 4 cells per eps break the h <= eps/8 rule: the config warns at
        # parse time and the solver warns once for every under-resolved row
        path = tmp_path / "prob.yaml"
        path.write_text(MINIMAL.replace("cells_per_eps: 16",
                                        "cells_per_eps: 4"))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        text = (tmp_path / "o" / "run.log").read_text()
        warned = "WARNING cells_per_eps=4 below the resolution rule"
        assert err.count(warned) == 1
        assert text.count(warned) == 1
        # one resolution warning per row, as A_eps is assembled; the
        # uniqueness probe adds none
        eps_list = parse_config(path.read_text()).eps
        assert text.count("does not resolve the oscillation") == len(eps_list)

    def test_probe_command(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        assert main(["probe", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        assert len(_read_csv(tmp_path / "o" / "hconv.csv", "hconv")) == 2
        assert len(_read_csv(tmp_path / "o" / "meyers.csv", "meyers")) == 2 * 5
