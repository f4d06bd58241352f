import csv
import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from conftest import config_key_paths
from homfem.cli import (ConfigError, _run_log, load_schema, main, parse_config,
                        run_sweep)
from homfem.nonlin import TableFactor
from homfem.norms import h_convergence_probe, probe_load

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


def _strict_json(path):
    """``path`` parsed as strict JSON, which has no NaN or Infinity."""
    return _strict_loads(path.read_text(), path.name)


def _strict_loads(text, what):
    def reject(constant):
        raise ValueError(f"{what} holds the non-standard {constant}")

    return json.loads(text, parse_constant=reject)


def _logged(out, prefix):
    """The payloads of ``out/run.log``'s lines that start with ``prefix``."""
    return [line.removeprefix(prefix) for line in
            (out / "run.log").read_text().splitlines()
            if line.startswith(prefix)]


def _read_csv(path, schema_name):
    schema = load_schema(schema_name)
    names = [c["name"] for c in schema["columns"]]
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == names
    return [dict(zip(names, r)) for r in rows[1:]]


# every key path, with the defaults filled in, of MINIMAL (a 1D piecewise
# tensor) and of the shipped coupled_2d.yaml (an n = 2 expression tensor on
# the square): the top-level keys, the nonlinearity, mesh, solver and probe
# sections, and the tensor, flux term, value factor and monomial specs
_MUTABLE_KEYS = [
    (text, key)
    for text in (MINIMAL, (CONFIGS / "coupled_2d.yaml").read_text())
    for key in config_key_paths(parse_config(text))]
# YAML sources: wrong types, values out of range, and scalars PyYAML reads
# as strings (1e-9, 1e3) or as non-finite floats
_MUTATED_VALUES = ["abc", "1e-9", "1e3", ".inf", "-.inf", ".nan", "0", "-1",
                   "-0.5", "0.5", "2", "3.7", "null", "true", "[]",
                   "[1, abc]", "[0.5, 0.25]", "{a: 1}", "{}"]


_MONOMIAL = "nonlinearity.terms[1].h.monomials[0]"


def _with_tensor(tensor):
    """MINIMAL with its piecewise tensor replaced by ``tensor``."""
    return MINIMAL.replace("""tensor:
  kind: piecewise
  grid: [2]
  values: [1.0, 4.0]""", tensor)


def _on_square(text):
    """``text`` on the unit square."""
    return text.replace("domain: interval", "domain: unit-square")


_NOT_FINITE = "tensor: {kind: expression, entries: \"1/floor(2*%s)\"}"


# the parse errors of the tensor and defect specs, word for word, with the
# key each names: a grid or a table that does not fit, an entry of the
# wrong shape for system_dim 2, an unknown kind, a tensor that is not
# finite on the 16-per-axis sample grid (on either domain, for either
# system_dim), a defect that is not localized, and a tensor and a defect
# that pass their own checks but whose sum is not elliptic
_TENSOR_ERRORS = [
    ("tensor.grid", MINIMAL.replace("grid: [2]", "grid: [2, 2]"),
     "tensor.grid must have 1 entries, each at least 1 (the domain's "
     "dimension is 1), got [2, 2]"),
    ("tensor.values", MINIMAL.replace("grid: [2]", "grid: [3]"),
     "tensor.values: piecewise table has 2 entries, grid needs 3"),
    ("tensor.value",
     _with_tensor("tensor: {kind: constant, value: [1.0, 2.0, 3.0]}")
     + "system_dim: 2\n",
     "tensor.value: cannot interpret entry of shape (3,) as an (n=2, n=2, "
     "N=1, N=1) tensor"),
    ("tensor.entries",
     _with_tensor("tensor: {kind: expression, entries: [[1.0]]}")
     + "system_dim: 2\n",
     "tensor.entries: cannot interpret entries of shape (1, 1) as an (n=2, "
     "n=2, N=1, N=1) tensor"),
    ("tensor.kind", _with_tensor("tensor: {kind: tabular, value: 1.0}"),
     "tensor.kind must be one of constant, piecewise, expression, got "
     "'tabular'"),
    ("defect.kind", MINIMAL + "defect: {kind: bump, value: 1.0}\n",
     "defect.kind must be one of constant, piecewise, expression, got "
     "'bump'"),
    ("defect.grid", MINIMAL + "defect: {kind: piecewise, grid: [4, 4], "
                              "values: [0.0]}\n",
     "defect.grid must have 1 entries, each at least 1 (the domain's "
     "dimension is 1), got [4, 4]"),
    ("tensor.entries", _with_tensor(_NOT_FINITE % "x") + "system_dim: 2\n",
     "tensor.entries: tensor evaluation failed at point [0.03125]"),
    ("tensor.entries", _with_tensor(_NOT_FINITE % "x"),
     "tensor.entries: tensor evaluation failed at point [0.03125]"),
    ("tensor.entries", _on_square(_with_tensor(_NOT_FINITE % "x1")),
     "tensor.entries: tensor evaluation failed at point [0.03125 0.03125]"),
    ("tensor.entries",
     _on_square(_with_tensor(_NOT_FINITE % "x1")).replace(
         "powers: [2]", "powers: [2, 0]") + "system_dim: 2\n",
     "tensor.entries: tensor evaluation failed at point [0.03125 0.03125]"),
    ("defect", MINIMAL + "defect: {kind: constant, value: 0.5}\n",
     "defect: defect fails the localization spot-check: ball-mean of |b| "
     "does not decay with radius ([1.0, 1.0, 1.0, 1.0])"),
    ("defect.values",
     _with_tensor("tensor: {kind: constant, value: 1.0}")
     + "defect: {kind: piecewise, grid: [4], "
       "values: [0.0, -1.5, 0.0, 0.0]}\n",
     "tensor.value, defect.values: base plus defect loses ellipticity: "
     "observed margin -5.000e-01"),
]


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
        # an infinite tolerance would call every row converged after one step
        ("solver.newton_tol", MINIMAL + "solver: {newton_tol: .inf}\n"),
        ("solver.fp_tol", MINIMAL + "solver: {fp_tol: .inf}\n"),
        ("solver.delta", MINIMAL + "solver: {delta: .inf}\n"),
        ("solver.mesh_ratio", MINIMAL + "solver: {mesh_ratio: .inf}\n"),
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
        # spec keys, by their full paths: a number that is not finite, a
        # string for a list, an unknown or missing key, a non-boolean flag,
        # a string for a mapping, a table of the wrong shape
        (_MONOMIAL + ".coeff", MINIMAL.replace("coeff: 1.0", "coeff: .nan")),
        (_MONOMIAL + ".coeff", MINIMAL.replace("coeff: 1.0", "coeff: .inf")),
        (_MONOMIAL + ".powers",
         MINIMAL.replace("powers: [2]", 'powers: "2"')),
        (_MONOMIAL + ".bogus",
         MINIMAL.replace("powers: [2]}", "powers: [2], bogus: 1}")),
        ("tensor.value",
         _with_tensor("tensor: {kind: constant, value: .nan}")),
        ("tensor.value",
         _with_tensor("tensor: {kind: constant, value: .inf}")),
        ("tensor.triangular", MINIMAL.replace(
            "values: [1.0, 4.0]", 'values: [1.0, 4.0]\n  triangular: "yes"')),
        ("nonlinearity.p0", MINIMAL.replace("p0: 4.0", "p0: .inf")),
        ("nonlinearity.terms[1].p0",
         MINIMAL.replace('g: "0.25"', 'g: "0.25"\n      p0: .inf')),
        (_MONOMIAL + ".coef", MINIMAL.replace("coeff: 1.0", "coef: 1.0")),
        ("tensor.grid", MINIMAL.replace("  grid: [2]\n", "")),
        ("nonlinearity.terms[0].h.denominator", MINIMAL.replace(
            "h: {kind: constant}", "h: {kind: rational, numerator: "
            "[{coeff: 1.0, powers: [0]}]}")),
        ("tensor.values[0]", MINIMAL.replace("values: [1.0, 4.0]",
                                             "values: [a, 4.0]")),
        ("nonlinearity.terms[0].g.grid", MINIMAL.replace(
            'g: "0.5*sin(2*pi*x)"', "g: {values: [1.0, 2.0]}")),
        ("defect.values[1]", MINIMAL + "defect: {kind: piecewise, grid: [4], "
                                       "values: [0.0, .nan, 0.0, 0.0]}\n"),
        ("nonlinearity.terms[0].h",
         MINIMAL.replace("h: {kind: constant}", "h: constant")),
        ("tensor.entries",
         _with_tensor("tensor: {kind: expression, entries: [[1.0]]}")),
        ("tensor.kind", _with_tensor("tensor: {value: 2.0}")),
    ] + [(key, text) for key, text, _ in _TENSOR_ERRORS])
    def test_out_of_range_key_named(self, key, text):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(text)

    @pytest.mark.parametrize("text, message",
                             [case[1:] for case in _TENSOR_ERRORS])
    def test_tensor_spec_error_text(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("key, h", [
        ("value", "{kind: constant, value: .nan}"),
        ("value", "{kind: constant, value: abc}"),
        ("value", "{kind: constant, value: true}"),
        ("shift", "{kind: sin, coeffs: [1.0], shift: abc}"),
        ("coeffs", "{kind: sin, coeffs: 1.0}"),
        ("coeffs", "{kind: exp, coeffs: [.nan]}"),
    ])
    def test_value_factor_number_named(self, key, h):
        bad = MINIMAL.replace("h: {kind: constant}", f"h: {h}", 1)
        with pytest.raises(ConfigError,
                           match=rf"nonlinearity\.terms\[0\]\.h\.{key}"):
            parse_config(bad)

    @pytest.mark.parametrize("keys, text", [
        ((_MONOMIAL + ".powers", "system_dim"), MINIMAL + "system_dim: 2\n"),
        (("tensor.value", "defect.values"),
         _with_tensor("tensor: {kind: constant, value: -0.5}")
         + "defect: {kind: piecewise, grid: [4], "
           "values: [0.0, 0.5, 0.0, 0.0]}\n"),
    ], ids=["powers", "defect"])
    def test_contradicting_keys_both_named(self, keys, text):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert all(key in str(info.value) for key in keys)

    @pytest.mark.parametrize("target, shown", [
        ("[1, 3]", "[1, 3]"), ("[0, 1]", "[0, 1]"), ("[2, 1]", "[2, 1]"),
        ("[1]", "[1]"), ("1", "1"),
        # a fractional entry is named by its index
        ("[1.5, 1]", "target[0] must be an integer, got 1.5")])
    def test_flux_target_outside_the_index_range_named(self, target, shown):
        # every term of the shipped 1D config targets the only flux entry
        text = (CONFIGS / "two_phase_1d.yaml").read_text()
        bad = text.replace("target: [1, 1]", f"target: {target}", 1)
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert "nonlinearity.terms[0].target" in str(info.value)
        assert shown in str(info.value)

    @pytest.mark.parametrize("dim, g", [
        (1, "1/floor(x)"), (1, "1/abs(x - 17/32)"), (2, "1/floor(2*x2)")])
    def test_non_finite_spatial_factor_named(self, dim, g):
        # infinite on the whole cell, at one point of the 16-per-axis
        # sample grid, or on half the square
        doc = yaml.safe_load(MINIMAL)
        if dim == 2:
            doc.update(domain="unit-square", tensor={"kind": "constant",
                                                     "value": 1.0})
        doc["nonlinearity"]["terms"].append(
            {"target": [1, 1], "g": g, "h": {"kind": "constant"}})
        with pytest.raises(ConfigError, match=r"nonlinearity\.terms\[2\]\.g"):
            parse_config(yaml.safe_dump(doc))

    def test_float_without_decimal_point_parses(self):
        # PyYAML reads 1e-9 (no decimal point) as a string
        cfg = parse_config(MINIMAL + "solver: {fp_tol: 1e-9, mesh_ratio: 8e0,"
                                     " fp_max_iter: 40.0}\n")
        assert cfg.solver.fp_tol == 1e-9 and cfg.solver.mesh_ratio == 8.0
        assert cfg.solver.fp_max_iter == 40
        assert isinstance(cfg.solver.fp_max_iter, int)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(case=st.sampled_from(_MUTABLE_KEYS),
           value=st.sampled_from(_MUTATED_VALUES))
    def test_one_changed_key_parses_or_is_named(self, case, value):
        # a value that contradicts another key (system_dim: 2 against a
        # monomial's one power) is named with it
        text, key = case
        doc = yaml.safe_load(text)
        *sections, name = re.split(r"\.|(?=\[)", key)
        target = doc
        for section in sections:
            target = (target[int(section[1:-1])] if section.startswith("[")
                      else target.setdefault(section, {}))
        target[int(name[1:-1]) if name.startswith("[") else name] = (
            yaml.safe_load(value))
        try:
            parse_config(yaml.safe_dump(doc))
        except ConfigError as exc:
            assert key in str(exc)

    def test_echoed_config_has_defaults(self):
        cfg = parse_config(MINIMAL)
        doc = asdict(cfg)
        assert doc["quadrature"] == "midpoint"
        assert doc["solver"]["fp_max_iter"] == 50
        assert doc["probe"]["trials"] == 10

    @pytest.mark.parametrize("name", ["two_phase_1d", "coupled_2d",
                                      "catalog_2d"])
    def test_echoed_config_is_a_config(self, name, tmp_path):
        # the effective config that run.log records parses back to itself,
        # with the same warnings; compared as dicts, since a table g
        # compares by identity
        cfg = parse_config((CONFIGS / f"{name}.yaml").read_text())
        with _run_log(cfg, tmp_path):
            pass
        prefix = "INFO effective config: "
        [line] = [line for line in
                  (tmp_path / "run.log").read_text().splitlines()
                  if line.startswith(prefix)]
        echoed = parse_config(line.removeprefix(prefix))
        assert asdict(echoed) == asdict(cfg)
        assert echoed.warnings == cfg.warnings


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
# a spatial factor that is finite on the parse-time sample grid, whose
# |g|^p0 integral validate estimates as Infinity: 1/floor(64 x) is infinite
# on the first 64th of the interval
NON_INTEGRABLE = "1/floor(64*x)"
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
                                 "5*sin(2*pi*x)", NON_INTEGRABLE]),
           "h": st.sampled_from(_H_FACTORS)}), min_size=1, max_size=2))
@example(eps=[0.5, 0.25], cells_per_eps=8, cell_resolution=8, trials=1,
         terms=[{"target": [1, 1], "g": "5*sin(2*pi*x)",
                 "h": _H_FACTORS[-1]}])
@example(eps=[0.5], cells_per_eps=8, cell_resolution=8, trials=1,
         terms=[{"target": [1, 1], "g": NON_INTEGRABLE,
                 "h": _H_FACTORS[0]}])
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
        for path in Path(out).glob("*.json"):
            _strict_json(path)


def test_non_integrable_factor_writes_strict_summary(tmp_path):
    # |g|^p0 integrates to Infinity; summary.json records it as null
    doc = yaml.safe_load(MINIMAL)
    doc["nonlinearity"]["terms"].append(
        {"target": [1, 1], "g": NON_INTEGRABLE, "h": {"kind": "constant"}})
    summary = run_sweep(parse_config(yaml.safe_dump(doc)), tmp_path)
    terms = summary["nonlinearity_validation"]["terms"]
    assert terms[-1]["integral_estimate"] == np.inf
    written = _strict_json(tmp_path / "summary.json")
    assert written["nonlinearity_validation"]["terms"][-1] == {
        "target": [1, 1], "source": NON_INTEGRABLE,
        "integral_estimate": None, "passed": False}


def test_catalog_config_sweeps_every_row(tmp_path):
    # the shipped config whose flux has the sin, cos, exp and rational
    # factors and a tabulated g, under a defect and the 3-point rule
    config = CONFIGS / "catalog_2d.yaml"
    terms = parse_config(config.read_text()).nonlinearity.terms
    assert {t.h.kind for t in terms} == {"sin", "cos", "exp", "rational"}
    assert any(isinstance(t.g, TableFactor) for t in terms)
    assert main(["sweep", "--config", str(config), "--out",
                 str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "sweep.csv", "sweep")
    assert [row["status"] for row in rows] == ["converged", "converged"]
    assert all((tmp_path / name).is_file() for name in _OUTPUTS[:5])


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

    @pytest.mark.parametrize("command",
                             ["homogenize", "solve", "sweep", "probe"])
    def test_run_log_written(self, tmp_path, command):
        # every subcommand's run.log records the config it ran
        path = tmp_path / "prob.yaml"
        path.write_text(MINIMAL)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        logged = _logged(out, "INFO effective config: ")
        assert len(logged) == 1
        assert json.loads(logged[0]) == json.loads(json.dumps(
            asdict(parse_config(MINIMAL))))

    def test_deterministic_rerun(self, tmp_path):
        cfg = parse_config(MINIMAL)
        run_sweep(cfg, tmp_path / "a")
        run_sweep(cfg, tmp_path / "b")
        for name in ("sweep.csv", "hconv.csv", "meyers.csv", "summary.json",
                     "ahat.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_solver_norms_do_not_go_through_blas(self, tmp_path, blas_norms):
        # the shipped 2D config, cut to two coarse periods
        coupled = yaml.safe_load((CONFIGS / "coupled_2d.yaml").read_text())
        coupled.update(eps=[0.5, 0.25], mesh={"cells_per_eps": 8,
                                              "cell_resolution": 16},
                       probe={"trials": 2})
        for name, text in (("1d", MINIMAL), ("2d", yaml.safe_dump(coupled))):
            run_sweep(parse_config(text), tmp_path / name)
            rows = _read_csv(tmp_path / name / "sweep.csv", "sweep")
            assert [r["status"] for r in rows] == ["converged"] * 2
        assert blas_norms == []


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

        def failing_finest(cfg_, ahat_, eps_, **kw):
            if eps_ == cfg.eps[-1]:
                raise RuntimeError("synthetic stage failure")
            return original(cfg_, ahat_, eps_, **kw)

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


def _failing(*args, **kwargs):
    raise RuntimeError("synthetic stage failure")


def _failing_approximate_solution(solve_linear):
    # only approximate_solution refines over a factorization here
    def solve(A, rhs, near=None):
        if near is not None:
            raise RuntimeError("synthetic stage failure")
        return solve_linear(A, rhs)
    return solve


def _failing_fixed_point(iterate):
    def run(*args):
        if args[-1] == "step_norms":  # the fixed point stops on steps
            raise RuntimeError("synthetic stage failure")
        return iterate(*args)
    return run


class TestFailingStageNamed:
    @pytest.mark.parametrize("attr, make, stage", [
        ("lu_factor", lambda _: _failing, "FrozenOperator"),
        # Newton's first step is the first solve of a row
        ("solve_linear", lambda _: _failing, "solve_homogenized"),
        ("solve_linear", _failing_approximate_solution,
         "approximate_solution"),
        ("_iterate", _failing_fixed_point, "fixed_point_solve"),
    ])
    def test_run_log_names_the_stage(self, tmp_path, monkeypatch, attr, make,
                                     stage):
        import homfem.solver as solver
        monkeypatch.setattr(solver, attr, make(getattr(solver, attr)))
        path = tmp_path / "prob.yaml"
        path.write_text(MINIMAL)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--eps", "0.125",
                     "--out", str(out)]) == 1
        # the status keeps its form; the log names the stage
        row = json.loads((out / "solve.json").read_text())
        assert row["status"] == "error-RuntimeError"
        assert (f"WARNING solve at eps=0.125 failed in {stage}: synthetic "
                f"stage failure") in (out / "run.log").read_text()


class TestUniquenessFailure:
    def test_failed_probe_is_recorded_and_the_sweep_exits_1(
            self, tmp_path, monkeypatch):
        # every row is solved before the probe fails: all five result files
        # are written, and summary.json records the probe's status
        import homfem.cli as cli

        def failing(*args, **kwargs):
            raise FloatingPointError("synthetic probe failure")

        monkeypatch.setattr(cli, "local_uniqueness_probe", failing)
        path = tmp_path / "prob.yaml"
        path.write_text(MINIMAL)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert all((out / name).exists() for name in _OUTPUTS)
        finest = parse_config(MINIMAL).eps[-1]
        assert _strict_json(out / "summary.json")["uniqueness"] == {
            "eps": finest,
            "status": "error-FloatingPointError: synthetic probe failure"}
        assert (f"WARNING uniqueness probe at eps={finest:g} failed in "
                in (out / "run.log").read_text())
        rows = _read_csv(out / "sweep.csv", "sweep")
        assert all(r["status"] == "converged" for r in rows)


# parses: the cell problems are the first to see that -1 is not elliptic
NOT_ELLIPTIC = _with_tensor("tensor: {kind: constant, value: -1}")


class TestCellFailure:
    @pytest.mark.parametrize("command",
                             ["homogenize", "solve", "sweep", "probe"])
    def test_not_elliptic_tensor_is_recorded(self, tmp_path, command):
        assert parse_config(NOT_ELLIPTIC).tensor.value == -1
        path = tmp_path / "prob.yaml"
        path.write_text(NOT_ELLIPTIC)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        status = json.loads((out / "summary.json").read_text())["cell"][
            "status"]
        assert status.startswith("error-ValueError: tensor fails the "
                                 "pointwise ellipticity check")
        assert ("cell problems failed in solve_cell_problems: tensor fails"
                in (out / "run.log").read_text())
        assert sorted(p.name for p in out.iterdir()) == ["run.log",
                                                         "summary.json"]

    def test_failed_cell_solve_ends_the_sweep_with_its_summary(
            self, tmp_path, monkeypatch):
        import homfem.cell
        from homfem.fem import LinearSolveError

        def singular(matrix):
            raise LinearSolveError("synthetic cell failure")

        monkeypatch.setattr(homfem.cell, "lu_factor", singular)
        summary = run_sweep(parse_config(MINIMAL), tmp_path)
        status = "error-LinearSolveError: synthetic cell failure"
        assert summary == {"cell": {"status": status}}
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        assert not (tmp_path / "sweep.csv").exists()
        assert ("cell problems failed in solve_cell_problems: synthetic cell "
                "failure") in (tmp_path / "run.log").read_text()


class TestQuadratureConfig:
    def test_3point_rule_runs(self, tmp_path):
        from homfem.cli import compute_effective_tensor, run_single
        cfg = parse_config(MINIMAL + "\nquadrature: 3point\n")
        assert cfg.quadrature == "3point"
        ahat, _ = compute_effective_tensor(cfg)
        result = run_single(cfg, ahat, 0.125)
        assert result.row["status"] == "converged"


class TestSchemas:
    def test_all_columns_documented(self):
        for name in ("sweep", "hconv", "meyers", "solution"):
            schema = load_schema(name)
            for col in schema["columns"]:
                assert col["name"] and col["description"]


POLE = """
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
"""


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

    def test_homogenize_run_log_is_the_same_in_any_directory(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        logs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["homogenize", "--config", str(cfg),
                         "--out", str(out)]) == 0
            logs.append((out / "run.log").read_bytes())
        assert b"wrote ahat.json: " in logs[0]
        assert logs[0] == logs[1]

    def test_solve_command(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg), "--eps", "0.125",
                     "--out", str(tmp_path / "o")]) == 0
        row = json.loads((tmp_path / "o" / "solve.json").read_text())
        assert row["status"] == "converged"
        rows = _read_csv(tmp_path / "o" / "solution.csv", "solution")
        assert len(rows) == 129  # 128 cells -> 129 vertices, one component

    def test_solve_runs_no_linear_probe(self, tmp_path, count_calls):
        # the probe mesh is the row mesh here, where a sweep row probes its
        # period; solve writes no probe table, so it runs no probe
        probes = count_calls(h_convergence_probe)
        loads = count_calls(probe_load)
        assert main(["solve", "--config", str(CONFIGS / "coupled_2d.yaml"),
                     "--out", str(tmp_path)]) == 0
        row = json.loads((tmp_path / "solve.json").read_text())
        assert row["status"] == "converged"
        assert probes == loads == []

    def test_solve_stage_failure_recorded(self, tmp_path):
        # h = 1/u has its pole at the Newton start u = 0: the solve ends in
        # a status, as the same row of a sweep does, not in a traceback
        path = tmp_path / "pole.yaml"
        path.write_text(POLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out)]) != 0
        row = json.loads((out / "solve.json").read_text())
        assert row["status"] == "error-ValueError"
        assert _read_csv(out / "solution.csv", "solution") == []

    def test_failed_solve_writes_strict_json(self, tmp_path):
        # what the failed solve did not measure is null, never NaN
        path = tmp_path / "pole.yaml"
        path.write_text(POLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out)]) != 0
        row = _strict_json(out / "solve.json")
        assert row["margin"] is None and row["h"] is None
        assert row["eps"] == 0.125 and row["iterations"] == 0

    def test_failed_solve_logs_strict_json(self, tmp_path):
        # run.log's JSON payloads are strict too: null, never NaN
        path = tmp_path / "pole.yaml"
        path.write_text(POLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out)]) != 0
        [payload] = _logged(out, "INFO solve row: ")
        row = _strict_loads(payload, "solve row")
        assert row["margin"] is None and row["h"] is None

    def test_failed_sweep_logs_strict_json(self, tmp_path):
        path = tmp_path / "pole.yaml"
        path.write_text(POLE)
        out = tmp_path / "o"
        main(["sweep", "--config", str(path), "--out", str(out)])
        for prefix in ("INFO effective tensor computed: ", "INFO sweep row: ",
                       "INFO summary: "):
            [payload] = _logged(out, prefix)
            _strict_loads(payload, prefix)

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

    def test_fine_1d_probe_is_held_to_its_backward_error(self):
        # eps = 2^-12 on the shipped 1D config: 32,768 cells, where the
        # Ahat solve's residual 1.4e-10 is a backward error of 3e-19
        from homfem.cli import _probe_scale, compute_effective_tensor
        cfg = parse_config((CONFIGS / "two_phase_1d.yaml").read_text())
        ahat, _ = compute_effective_tensor(cfg)
        row = _probe_scale(cfg, ahat, 2.0 ** -12)
        assert row.n_cells == 32768 and np.isfinite(row.linf_diff)
