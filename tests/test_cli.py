import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from conftest import EQUAL_H, PRESETS
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdephase import analysis
from mzdephase.analysis import trace_distance_series
from mzdephase.cli import (
    MAX_GRID_POINTS,
    _default_times,
    _n_freq,
    build_config,
    cmd_divisibility,
    load_config,
    main,
    parse_grid,
    preset_path,
)
from mzdephase.errors import ConfigError, ImpossibleOutcome

BASELINE = {
    "distribution": {"mu_over_sigma": 400.0},
    "arm0": {"n_h": 1.553, "n_v": 1.544, "t_start": 0.0, "t_stop": 50.0},
    "arm1": {"n_h": 1.553, "n_v": 1.544, "t_start": 0.0, "t_stop": 60.0},
    "output": {"n_h": 1.553, "n_v": 1.544, "t_start": 60.0, "t_stop": None},
    "polarization": {
        "ch_re": 0.7071067811865476,
        "ch_im": 0.0,
        "cv_re": 0.7071067811865476,
        "cv_im": 0.0,
        "theta": 0.0,
    },
}


def preset_doc(name):
    with open(preset_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------

def test_preset_shorthand(capsys):
    assert main(["estimate", "--config", "preset:dtau10"]) == 0
    assert "interaction_time_difference" in capsys.readouterr().out


def test_load_baseline_preset():
    cfg, run = load_config(preset_path("dtau10"))
    assert cfg.window0.n_h == 1.553
    assert cfg.window0.n_v == 1.544
    assert cfg.dist.mu == 400.0
    assert (cfg.window0.t_start, cfg.window0.t_stop) == (0.0, 50.0)
    assert (cfg.window1.t_start, cfg.window1.t_stop) == (0.0, 60.0)
    assert cfg.window_out.t_start == 60.0
    assert run == {}


def test_missing_distribution_field_is_named():
    doc = json.loads(json.dumps(BASELINE))
    del doc["distribution"]["mu_over_sigma"]
    with pytest.raises(ConfigError) as err:
        build_config(doc)
    assert any("distribution.mu_over_sigma" in p for p in err.value.problems)


def test_output_window_before_arms_close_rejected():
    doc = json.loads(json.dumps(BASELINE))
    doc["output"]["t_start"] = 55.0
    with pytest.raises(ConfigError) as err:
        build_config(doc)
    assert any("output.t_start" in p for p in err.value.problems)


def test_all_errors_reported_at_once():
    doc = json.loads(json.dumps(BASELINE))
    del doc["distribution"]["mu_over_sigma"]
    doc["arm0"]["n_h"] = "not-a-number"
    doc["arm1"]["t_stop"] = -5.0
    doc["bogus"] = {}
    with pytest.raises(ConfigError) as err:
        build_config(doc)
    text = "\n".join(err.value.problems)
    assert "distribution.mu_over_sigma" in text
    assert "arm0.n_h" in text
    assert "arm1" in text
    assert "bogus" in text


def test_negative_window_start_rejected():
    doc = json.loads(json.dumps(BASELINE))
    doc["arm0"]["t_start"] = -1.0
    with pytest.raises(ConfigError) as err:
        build_config(doc)
    assert any("arm0.t_start" in p for p in err.value.problems)


def test_polarization_defaults_to_balanced_superposition():
    doc = json.loads(json.dumps(BASELINE))
    del doc["polarization"]
    cfg, _ = build_config(doc)
    assert abs(cfg.pol.c_h) == pytest.approx(np.sqrt(0.5))
    assert cfg.pol.theta == 0.0


# every numeric field, all of them present in BASELINE
FIELDS = [(section, field) for section, fields in BASELINE.items() for field in fields]
MISSING = object()


def mutated(doc, path, value):
    """A copy of doc with the section or field at path set to value, or
    removed when value is MISSING; a path into a non-object is skipped."""
    doc = json.loads(json.dumps(doc))
    container = doc
    for key in path[:-1]:
        container = container.get(key) if isinstance(container, dict) else None
    if isinstance(container, dict):
        if value is MISSING:
            container.pop(path[-1], None)
        else:
            container[path[-1]] = value
    return doc


# single-fault documents and the exact problems they report, in order
GOLDEN_PROBLEMS = [
    (("distribution",), MISSING, ["distribution: missing required section"]),
    (("distribution",), None, ["distribution: expected an object"]),
    (("distribution",), [], ["distribution: expected an object"]),
    (("arm0",), MISSING, ["arm0: missing required section"]),
    (("arm0",), None, ["arm0: expected an object"]),
    (("arm0",), [], ["arm0: expected an object"]),
    (("arm1",), MISSING, ["arm1: missing required section"]),
    (("arm1",), None, ["arm1: expected an object"]),
    (("arm1",), [], ["arm1: expected an object"]),
    (("output",), MISSING, ["output: missing required section"]),
    (("output",), None, ["output: expected an object"]),
    (("output",), [], ["output: expected an object"]),
    (("polarization",), None, ["polarization: expected an object"]),
    (("polarization",), [], ["polarization: expected an object"]),
    (("distribution", "mu_over_sigma"), MISSING,
     ["distribution.mu_over_sigma: missing required field"]),
    (("distribution", "mu_over_sigma"), None,
     ["distribution.mu_over_sigma: expected a number, got None"]),
    (("distribution", "mu_over_sigma"), True,
     ["distribution.mu_over_sigma: expected a number, got True"]),
    (("distribution", "mu_over_sigma"), "x",
     ["distribution.mu_over_sigma: expected a number, got 'x'"]),
    (("distribution", "mu_over_sigma"), math.inf, ["distribution.mu_over_sigma: must be finite"]),
    (("arm0", "n_h"), MISSING, ["arm0.n_h: missing required field"]),
    (("arm0", "n_h"), None, ["arm0.n_h: expected a number, got None"]),
    (("arm0", "n_h"), True, ["arm0.n_h: expected a number, got True"]),
    (("arm0", "n_h"), "x", ["arm0.n_h: expected a number, got 'x'"]),
    (("arm0", "n_h"), math.inf, ["arm0.n_h: must be finite"]),
    (("arm0", "n_v"), MISSING, ["arm0.n_v: missing required field"]),
    (("arm0", "n_v"), None, ["arm0.n_v: expected a number, got None"]),
    (("arm0", "n_v"), True, ["arm0.n_v: expected a number, got True"]),
    (("arm0", "n_v"), "x", ["arm0.n_v: expected a number, got 'x'"]),
    (("arm0", "n_v"), math.inf, ["arm0.n_v: must be finite"]),
    (("arm0", "t_start"), None, ["arm0.t_start: expected a number, got None"]),
    (("arm0", "t_start"), True, ["arm0.t_start: expected a number, got True"]),
    (("arm0", "t_start"), "x", ["arm0.t_start: expected a number, got 'x'"]),
    (("arm0", "t_start"), math.inf, ["arm0.t_start: must be finite"]),
    (("arm0", "t_stop"), MISSING, ["arm0.t_stop: missing required field"]),
    (("arm0", "t_stop"), None, ["arm0.t_stop: expected a number, got None"]),
    (("arm0", "t_stop"), True, ["arm0.t_stop: expected a number, got True"]),
    (("arm0", "t_stop"), "x", ["arm0.t_stop: expected a number, got 'x'"]),
    (("arm0", "t_stop"), math.inf, ["arm0.t_stop: must be finite"]),
    (("arm1", "n_h"), MISSING, ["arm1.n_h: missing required field"]),
    (("arm1", "n_h"), None, ["arm1.n_h: expected a number, got None"]),
    (("arm1", "n_h"), True, ["arm1.n_h: expected a number, got True"]),
    (("arm1", "n_h"), "x", ["arm1.n_h: expected a number, got 'x'"]),
    (("arm1", "n_h"), math.inf, ["arm1.n_h: must be finite"]),
    (("arm1", "n_v"), MISSING, ["arm1.n_v: missing required field"]),
    (("arm1", "n_v"), None, ["arm1.n_v: expected a number, got None"]),
    (("arm1", "n_v"), True, ["arm1.n_v: expected a number, got True"]),
    (("arm1", "n_v"), "x", ["arm1.n_v: expected a number, got 'x'"]),
    (("arm1", "n_v"), math.inf, ["arm1.n_v: must be finite"]),
    (("arm1", "t_start"), None, ["arm1.t_start: expected a number, got None"]),
    (("arm1", "t_start"), True, ["arm1.t_start: expected a number, got True"]),
    (("arm1", "t_start"), "x", ["arm1.t_start: expected a number, got 'x'"]),
    (("arm1", "t_start"), math.inf, ["arm1.t_start: must be finite"]),
    (("arm1", "t_stop"), MISSING, ["arm1.t_stop: missing required field"]),
    (("arm1", "t_stop"), None, ["arm1.t_stop: expected a number, got None"]),
    (("arm1", "t_stop"), True, ["arm1.t_stop: expected a number, got True"]),
    (("arm1", "t_stop"), "x", ["arm1.t_stop: expected a number, got 'x'"]),
    (("arm1", "t_stop"), math.inf, ["arm1.t_stop: must be finite"]),
    (("output", "n_h"), MISSING, ["output.n_h: missing required field"]),
    (("output", "n_h"), None, ["output.n_h: expected a number, got None"]),
    (("output", "n_h"), True, ["output.n_h: expected a number, got True"]),
    (("output", "n_h"), "x", ["output.n_h: expected a number, got 'x'"]),
    (("output", "n_h"), math.inf, ["output.n_h: must be finite"]),
    (("output", "n_v"), MISSING, ["output.n_v: missing required field"]),
    (("output", "n_v"), None, ["output.n_v: expected a number, got None"]),
    (("output", "n_v"), True, ["output.n_v: expected a number, got True"]),
    (("output", "n_v"), "x", ["output.n_v: expected a number, got 'x'"]),
    (("output", "n_v"), math.inf, ["output.n_v: must be finite"]),
    (("output", "t_start"), MISSING, ["output.t_start: missing required field"]),
    (("output", "t_start"), None, ["output.t_start: expected a number, got None"]),
    (("output", "t_start"), True, ["output.t_start: expected a number, got True"]),
    (("output", "t_start"), "x", ["output.t_start: expected a number, got 'x'"]),
    (("output", "t_start"), math.inf, ["output.t_start: must be finite"]),
    (("output", "t_stop"), True, ["output.t_stop: expected a number, got True"]),
    (("output", "t_stop"), "x", ["output.t_stop: expected a number, got 'x'"]),
    (("output", "t_stop"), math.inf, ["output.t_stop: must be finite"]),
    (("polarization", "ch_re"), None, ["polarization.ch_re: expected a number, got None"]),
    (("polarization", "ch_re"), True, ["polarization.ch_re: expected a number, got True"]),
    (("polarization", "ch_re"), "x", ["polarization.ch_re: expected a number, got 'x'"]),
    (("polarization", "ch_re"), math.inf, ["polarization.ch_re: must be finite"]),
    (("polarization", "ch_im"), None, ["polarization.ch_im: expected a number, got None"]),
    (("polarization", "ch_im"), True, ["polarization.ch_im: expected a number, got True"]),
    (("polarization", "ch_im"), "x", ["polarization.ch_im: expected a number, got 'x'"]),
    (("polarization", "ch_im"), math.inf, ["polarization.ch_im: must be finite"]),
    (("polarization", "cv_re"), None, ["polarization.cv_re: expected a number, got None"]),
    (("polarization", "cv_re"), True, ["polarization.cv_re: expected a number, got True"]),
    (("polarization", "cv_re"), "x", ["polarization.cv_re: expected a number, got 'x'"]),
    (("polarization", "cv_re"), math.inf, ["polarization.cv_re: must be finite"]),
    (("polarization", "cv_im"), None, ["polarization.cv_im: expected a number, got None"]),
    (("polarization", "cv_im"), True, ["polarization.cv_im: expected a number, got True"]),
    (("polarization", "cv_im"), "x", ["polarization.cv_im: expected a number, got 'x'"]),
    (("polarization", "cv_im"), math.inf, ["polarization.cv_im: must be finite"]),
    (("polarization", "theta"), None, ["polarization.theta: expected a number, got None"]),
    (("polarization", "theta"), True, ["polarization.theta: expected a number, got True"]),
    (("polarization", "theta"), "x", ["polarization.theta: expected a number, got 'x'"]),
    (("polarization", "theta"), math.inf, ["polarization.theta: must be finite"]),
    (("arm0", "n_h"), 0.0, ["arm0.n_h: refractive index must be positive"]),
    (("output", "n_v"), -1.0, ["output.n_v: refractive index must be positive"]),
    (("arm1", "t_start"), -1.0, ["arm1.t_start: negative times are not allowed"]),
    (("arm0", "t_start"), 55.0, ["arm0: t_start 55.0 must not exceed t_stop 50.0"]),
    (("output", "t_stop"), 59.0, ["output: t_start 60.0 must not exceed t_stop 59.0"]),
    (("output", "t_start"), 55.0,
     ["output.t_start: output coupling starts at 55.0, before the inside couplings end at 60.0"]),
    (("polarization", "ch_re"), 0.5,
     ["polarization: |c_h|^2 + |c_v|^2 = 0.7500000000000001, expected 1"]),
]


@pytest.mark.parametrize("path, value, problems", GOLDEN_PROBLEMS)
def test_single_fault_documents_report_the_golden_problems(path, value, problems):
    with pytest.raises(ConfigError) as err:
        build_config(mutated(BASELINE, path, value))
    assert err.value.problems == problems


@pytest.mark.parametrize("changes, problems", [
    # a malformed polarization still lets the output window be checked
    ([(("polarization",), []), (("output", "t_start"), 55.0)], [
        "polarization: expected an object",
        "output.t_start: output coupling starts at 55.0, before the inside couplings end at 60.0",
    ]),
    # a bad amplitude keeps its default, so the state is still checked
    ([(("polarization", "ch_re"), "x"), (("polarization", "cv_re"), 0.5)], [
        "polarization.ch_re: expected a number, got 'x'",
        "polarization: |c_h|^2 + |c_v|^2 = 0.7499999999999999, expected 1",
    ]),
    # a window with a bad number is not checked further; the first bound wins
    ([(("arm0", "n_h"), -1.0), (("arm0", "t_start"), "x")],
     ["arm0.t_start: expected a number, got 'x'"]),
    ([(("arm0", "n_h"), -1.0), (("arm0", "n_v"), 0.0), (("arm0", "t_start"), -1.0)],
     ["arm0.n_h: refractive index must be positive"]),
    ([(("arm0", "zz"), 1), (("arm0", "aa"), 1), (("bogus",), {}), (("run",), {"bad": 1}),
      (("output", "n_h"), None)], [
        "bogus: unknown section",
        "arm0.aa: unknown field",
        "arm0.zz: unknown field",
        "output.n_h: expected a number, got None",
        "run.bad: unknown field",
    ]),
])
def test_several_faults_report_the_golden_problems_in_order(changes, problems):
    doc = BASELINE
    for path, value in changes:
        doc = mutated(doc, path, value)
    with pytest.raises(ConfigError) as err:
        build_config(doc)
    assert err.value.problems == problems


@pytest.mark.parametrize("value", [10**400, -(10**400)])
@pytest.mark.parametrize("section, field", FIELDS)
def test_integer_beyond_the_float_range_is_not_finite(section, field, value):
    with pytest.raises(ConfigError) as err:
        build_config(mutated(BASELINE, (section, field), value))
    assert err.value.problems == [f"{section}.{field}: must be finite"]


@pytest.mark.parametrize("digits", [400, 5000])
def test_huge_integer_in_a_config_file_exits_2(tmp_path, digits, capsys):
    # 5000 digits exceed the integer-string limit of Python 3.11+, where the
    # JSON reader itself refuses the number
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BASELINE).replace("1.553", "1" + "0" * digits, 1))
    assert main(["estimate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    if digits == 400:
        assert captured.err == "config error: arm0.n_h: must be finite\n"


_TARGETS = [(section,) for section in (*BASELINE, "run")] + FIELDS
_VALUES = st.one_of(
    st.just(MISSING), st.none(), st.booleans(), st.text(max_size=3), st.integers(),
    st.sampled_from([10**400, -(10**400)]), st.floats(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.lists(st.tuples(st.sampled_from(_TARGETS), _VALUES), min_size=1, max_size=4),
)
def test_mutated_presets_give_a_config_or_a_config_error(name, changes):
    doc = preset_doc(name)
    for path, value in changes:
        doc = mutated(doc, path, value)
    try:
        build_config(doc)
    except ConfigError as exc:
        assert exc.problems and all(isinstance(p, str) for p in exc.problems)


def test_parse_grid():
    grid = parse_grid("0:60:0.5")
    assert len(grid) == 121
    assert grid[0] == 0.0
    assert grid[-1] == 60.0
    for bad in ("10:0:1", "0:10:0", "1:2", "a:b:c", 5, None):
        with pytest.raises(ConfigError):
            parse_grid(bad)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_inside_sweep_columns_and_determinism(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASELINE)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "sweep", "--config", cfg_path, "--grid", "0:60:0.1",
        "--locations", "path0,path1,joint_inside", "--out",
    ]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    header = data1.decode().splitlines()[0]
    assert header == "tau,D_path0,D_path1,D_joint_inside,p_out0,p_out1,popH_out0,popH_out1"


def test_inside_sweep_shape(tmp_path):
    cfg_path = write_config(tmp_path, BASELINE)
    out = tmp_path / "inside.csv"
    main([
        "sweep", "--config", cfg_path, "--grid", "0:60:0.02",
        "--locations", "path0,path1,joint_inside", "--out", str(out),
    ])
    rows = np.genfromtxt(out, delimiter=",", names=True)
    # path-wise curves are monotone, the joint one oscillates after one arm closes
    assert np.all(np.diff(rows["D_path0"]) <= 1e-9)
    assert np.all(np.diff(rows["D_path1"]) <= 1e-9)
    joint = rows["D_joint_inside"]
    late = rows["tau"] > 50.0
    assert np.max(np.diff(joint[late])) > 0.01
    assert np.all(np.diff(joint[~late]) <= 1e-9)


def test_full_interference_sweep_constant_port(tmp_path, capsys):
    out = tmp_path / "d0.csv"
    code = main([
        "sweep", "--config", str(preset_path("dtau0")), "--grid", "60:400:1",
        "--locations", "path0_out,path1_out,joint_out", "--out", str(out),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "dark port" in err
    lines = out.read_text().splitlines()
    head = lines[0].split(",")
    p0_col = head.index("p_out0")
    dark_col = head.index("D_path1_out")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[p0_col] == "1"
        assert cells[dark_col] == ""


def test_sweep_prints_zero_on_a_bright_port_without_coherence(tmp_path, capsys):
    # equal-H port 1 takes no H light: its trace distance is zero, not roundoff
    code = main(["sweep", "--config", write_config(tmp_path, EQUAL_H), "--grid", "10:12:1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    column = lines[0].split(",").index("D_path1_out")
    assert [line.split(",")[column] for line in lines[1:]] == ["0", "0", "0"]


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_sweep_out_that_cannot_be_opened_exits_2(tmp_path, where, capsys):
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "x.csv"
    code = main([
        "sweep", "--config", "preset:dtau10", "--grid", "60:100:1", "--out", str(out),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --out: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", PRESETS)
def test_sweep_columns_match_state_based_series(name, tmp_path, capsys):
    cfg, _ = load_config(preset_path(name))
    for spec, locations in (
        ("60:3000:10", "path0_out,path1_out,joint_out"),
        ("0:60:0.25", "path0,path1,joint_inside"),
    ):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main([
                "sweep", "--config", f"preset:{name}", "--grid", spec,
                "--locations", locations, "--out", str(out),
            ]) == 0
        text = outs[0].read_text()
        assert outs[1].read_text() == text
        rows = [line.split(",") for line in text.splitlines()]
        grid = parse_grid(spec)
        np.testing.assert_array_equal([float(r[0]) for r in rows[1:]], grid)
        for k, location in enumerate(locations.split(","), start=1):
            assert rows[0][k] == f"D_{location}"
            cells = [r[k] for r in rows[1:]]
            try:
                want = trace_distance_series(cfg, location, grid).values
            except ImpossibleOutcome:
                assert set(cells) == {""}
                assert f"{location} is a dark port" in capsys.readouterr().err
                continue
            got = np.array([float(c) for c in cells])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=location)


@pytest.mark.parametrize("command", ["sweep", "divisibility"])
@pytest.mark.parametrize("spec", ["60:inf:1", "60:nan:1", "nan:100:1", "60:100:inf", "60:60:1"])
def test_non_finite_or_one_point_grid_exits_2(command, spec, capsys):
    assert main([command, "--config", "preset:dtau10", "--grid", spec]) == 2
    assert "config error: grid:" in capsys.readouterr().err


def test_parse_grid_caps_the_number_of_points():
    assert len(parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
    for bad in (f"0:{MAX_GRID_POINTS}:1", "60:1e300:1", "-1e308:1e308:1"):
        with pytest.raises(ConfigError, match="grid:"):
            parse_grid(bad)


_ROUNDED = "1e16:1.000000000000001e16:0.5"


def test_parse_grid_refuses_points_that_round_onto_each_other():
    # floats near 1e16 are 2 apart: steps of 0.5 land on the same time
    with pytest.raises(ConfigError) as refused:
        parse_grid(_ROUNDED, field="run.grid")
    assert refused.value.problems == [f"run.grid: points of {_ROUNDED!r} round onto each other"]
    # a step of one float spacing keeps every point
    np.testing.assert_array_equal(np.diff(parse_grid("1e16:1.000000000000001e16:2")), 2.0)


@pytest.mark.parametrize("command", ["sweep", "divisibility"])
def test_a_grid_whose_points_round_onto_each_other_exits_2(command, capsys):
    # the commands crashed on their own strictly-increasing checks
    assert main([command, "--config", "preset:dtau10", "--grid", _ROUNDED]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: grid: points of {_ROUNDED!r} round onto each other\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sweep", "divisibility", "oracle-check"])
@pytest.mark.parametrize("spec", ["60:1e300:1", f"0:{MAX_GRID_POINTS}:1"])
def test_oversized_grid_exits_2(command, spec, capsys):
    assert main([command, "--config", "preset:dtau10", "--grid", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: grid:")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sweep", "estimate", "divisibility", "oracle-check"])
def test_empty_grid_flag_exits_2(tmp_path, command, capsys):
    # an empty --grid is a malformed spec, not a missing flag: it neither
    # falls back to run.grid nor, for estimate, to the automatic range
    doc = dict(BASELINE, run={"grid": "60:100:1"})
    assert main([command, "--config", write_config(tmp_path, doc), "--grid", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: grid: expected START:STOP:STEP, got ''\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, run, field", [
    ("", {}, "--locations"),
    ("path0_out,", {}, "--locations"),
    (None, {"locations": "path0_out"}, "run.locations"),
    (None, {"locations": []}, "run.locations"),
    (None, {"locations": ["path0_out", 3]}, "run.locations"),
    # a repeated location wrote the same column twice
    ("joint_out,joint_out", {}, "--locations"),
    (None, {"locations": ["path0_out", "path1_out", "path0_out"]}, "run.locations"),
])
def test_sweep_rejects_bad_locations(tmp_path, flag, run, field, capsys):
    argv = ["sweep", "--config", write_config(tmp_path, dict(BASELINE, run=run)),
            "--grid", "60:100:1"]
    if flag is not None:
        argv += ["--locations", flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err
    assert captured.out == ""


def test_sweep_rejects_inside_location_beyond_validity(tmp_path):
    cfg_path = write_config(tmp_path, BASELINE)
    code = main([
        "sweep", "--config", cfg_path, "--grid", "0:100:1",
        "--locations", "path0", "--out", "-",
    ])
    assert code == 2


def test_sweep_requires_grid(tmp_path):
    cfg_path = write_config(tmp_path, BASELINE)
    assert main(["sweep", "--config", cfg_path, "--out", "-"]) == 2


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_baseline(capsys):
    code = main(["estimate", "--config", str(preset_path("dtau10"))])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    assert fields["estimated_quantity"] == "interaction_time_difference"
    assert float(fields["ground_truth"]) == 10.0
    assert float(fields["relative_error"]) <= 0.05


def test_estimate_follows_the_printed_peak(capsys):
    # the user's range ends before the automatic range's peak at 1665.6
    cfg, _ = load_config(preset_path("dtau10"))
    assert main(["estimate", "--config", "preset:dtau10", "--grid", "60:1600:1"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    peak = float(fields["peak_total_interaction_time"])
    assert peak == pytest.approx(1540.0)
    n_max = max(cfg.window0.n_h, cfg.window0.n_v, cfg.window1.n_h, cfg.window1.n_v)
    want = abs(cfg.window_out.delta_n) * peak / n_max
    assert float(fields["time_difference_estimate"]) == pytest.approx(want, rel=1e-15)


def test_estimate_full_interference_exits_3(capsys):
    code = main(["estimate", "--config", str(preset_path("dtau0"))])
    assert code == 3
    assert capsys.readouterr().err == (
        "out of regime: interference weights (2.0, 2.0) are not negligible\n"
    )


def estimate_fields(out):
    return dict(line.split(": ") for line in out.strip().splitlines())


@pytest.mark.parametrize("mu", [1e12, 1e300])
def test_estimate_takes_a_mu_of_any_size(tmp_path, mu, capsys):
    # mu enters |Lambda| only through a constant phase: the peak search needs
    # no grid that resolves it, and the peak stays where it is at mu = 400
    assert main(["estimate", "--config", write_config(tmp_path, BASELINE)]) == 0
    want = float(estimate_fields(capsys.readouterr().out)["peak_total_interaction_time"])
    doc = dict(BASELINE, distribution={"mu_over_sigma": mu})
    assert main(["estimate", "--config", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    got = float(estimate_fields(captured.out)["peak_total_interaction_time"])
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("flag, run", [
    (["--grid", "60:1e20:1e19"], {}),
    ([], {"grid": "60:1e20:1e19"}),
])
def test_estimate_takes_a_scan_range_of_any_length(tmp_path, flag, run, capsys):
    # eleven grid times, but ~4e19 steps of 1/40 of the width 1/0.009; the
    # peak search bisects only within a fixed reach of |Lambda|'s centre
    assert main(["estimate", "--config", write_config(tmp_path, BASELINE)]) == 0
    want = capsys.readouterr().out
    path = write_config(tmp_path, dict(BASELINE, run=run))
    assert main(["estimate", "--config", path, *flag]) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert captured.err == ""


def test_estimate_searches_the_peak_once(tmp_path, monkeypatch, capsys):
    # both cross delays are negative, so |Lambda| has two unit peaks, at
    # total outside times 400 and 1640: the peak search warns
    doc = json.loads(json.dumps(BASELINE))
    doc["arm0"].update({"n_h": 1.5, "n_v": 1.6, "t_stop": 100.0})
    doc["arm1"].update({"n_h": 1.5, "n_v": 1.6, "t_stop": 104.0})
    doc["output"].update({"n_h": 1.56, "n_v": 1.55, "t_start": 104.0})
    searches = []
    search = analysis.lambda_peak

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(analysis, "lambda_peak", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["estimate", "--config", write_config(tmp_path, doc)]) == 0
    assert len(searches) == 1
    assert len(caught) == 1
    assert "recoherence peak is ambiguous" in str(caught[0].message)
    fields = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    t_max = float(fields["peak_total_interaction_time"])
    assert float(fields["time_difference_estimate"]) == pytest.approx(0.01 * t_max / 1.6)


def test_estimate_index_mode(tmp_path, capsys):
    doc = json.loads(json.dumps(BASELINE))
    doc["arm0"].update({"n_h": 1.553, "n_v": 1.553, "t_stop": 3000.0})
    doc["arm1"].update({"n_h": 1.551, "n_v": 1.551, "t_stop": 3000.0})
    doc["output"]["t_start"] = 3000.0
    cfg_path = write_config(tmp_path, doc)
    code = main(["estimate", "--config", cfg_path])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    assert fields["estimated_quantity"] == "index_difference"
    assert float(fields["index_difference_estimate"]) == pytest.approx(0.002, rel=0.05)
    assert float(fields["relative_error"]) <= 0.05


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------

def test_divisibility_baseline(capsys):
    code = main([
        "divisibility", "--config", str(preset_path("dtau10")), "--grid", "60:3000:1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "consistency: OK" in out
    assert out.count("non_cp_divisible:") == 2  # one interval per port


def test_divisibility_asymmetric(capsys):
    code = main([
        "divisibility", "--config", str(preset_path("dtau1p5")), "--grid", "60:1200:0.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "port 0: 1 non-CP-divisible interval(s)" in out
    assert "port 1: 0 non-CP-divisible interval(s)" in out


def test_divisibility_full_interference(capsys):
    code = main([
        "divisibility", "--config", str(preset_path("dtau0")), "--grid", "60:800:1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "port 0: 0 non-CP-divisible interval(s)" in out
    assert "dark port" in out


_AMPLITUDES = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]),  # H, V
    st.builds(
        lambda a, p, q: (math.cos(a) * math.cos(p), math.cos(a) * math.sin(p),
                         math.sin(a) * math.cos(q), math.sin(a) * math.sin(q)),
        st.floats(0.0, math.pi / 2), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([*PRESETS, "equal-H"]), _AMPLITUDES, st.floats(-10.0, 10.0))
def test_divisibility_report_ignores_the_input_polarization(name, amplitudes, theta):
    # darkness and the rise threshold are those of the |+> / |-> pair, whose
    # trace distance the backflow detector reads
    doc = EQUAL_H if name == "equal-H" else preset_doc(name)
    grid = parse_grid(f"{doc['output']['t_start']}:3000:2")

    def report(polarization):
        cfg, _ = build_config({**doc, "polarization": polarization})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cmd_divisibility(cfg, grid)
        return code, out.getvalue()

    fields = dict(zip(("ch_re", "ch_im", "cv_re", "cv_im"), amplitudes), theta=theta)
    assert report(fields) == report({})


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def test_oracle_check_passes(capsys):
    code = main([
        "oracle-check", "--config", str(preset_path("dtau10")),
        "--grid", "0:2400:200", "--n-freq", "2001",
    ])
    assert code == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_oracle_check_bundled_presets_pass(capsys):
    for name in ("dtau10", "dtau1p5", "dtau0"):
        code = main([
            "oracle-check", "--config", str(preset_path(name)),
            "--grid", "0:2400:300", "--n-freq", "2001",
        ])
        assert code == 0, name
        assert "verdict: PASS" in capsys.readouterr().out


def test_oracle_check_coarse_grid_degrades(capsys):
    code = main([
        "oracle-check", "--config", str(preset_path("dtau10")),
        "--grid", "0:2400:200", "--n-freq", "51",
    ])
    out = capsys.readouterr().out
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    assert float(fields["max_deviation"]) > 1e-5
    assert code == 1


def test_oracle_check_honours_run_n_freq(tmp_path, capsys):
    doc = dict(BASELINE, run={"n_freq": 51, "grid": "0:2400:200"})
    path = write_config(tmp_path, doc)
    assert main(["oracle-check", "--config", path]) == 1
    capsys.readouterr()
    # the flag still takes precedence over the config
    assert main(["oracle-check", "--config", path, "--n-freq", "2001"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("theta", [1.7e308, 7.0])
def test_oracle_check_passes_at_a_theta_beyond_pi(tmp_path, theta, capsys):
    # theta is only the phase of the input coherence, c_h e^(i theta) c_v^*;
    # it is never added to a phase mu * x, which 1.7e308 would swallow
    doc = json.loads(json.dumps(BASELINE))
    doc["polarization"]["theta"] = theta
    assert main(["oracle-check", "--config", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert "verdict: PASS" in captured.out
    assert captured.err == ""


def _refuse_to_build_a_grid(monkeypatch):
    from mzdephase import oracle

    def refuse(*args, **kwargs):
        raise AssertionError("a frequency grid was built")

    monkeypatch.setattr(oracle.FrequencyGrid, "build", refuse)


@pytest.mark.parametrize("value", ["2", "0", "-5", str(MAX_GRID_POINTS + 1), str(10**400)])
def test_oracle_check_rejects_out_of_range_n_freq_flag(value, monkeypatch, capsys):
    _refuse_to_build_a_grid(monkeypatch)
    code = main([
        "oracle-check", "--config", "preset:dtau10", "--grid", "0:120:60",
        "--n-freq", value,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: --n-freq: expected an integer from 3 to {MAX_GRID_POINTS}, "
        f"got {value}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "value", [2, 0, 201.0, "201", True, None, MAX_GRID_POINTS + 1, 10**400]
)
def test_oracle_check_rejects_invalid_run_n_freq(tmp_path, value, monkeypatch, capsys):
    _refuse_to_build_a_grid(monkeypatch)
    doc = dict(BASELINE, run={"n_freq": value, "grid": "0:120:60"})
    assert main(["oracle-check", "--config", write_config(tmp_path, doc)]) == 2
    assert "run.n_freq" in capsys.readouterr().err


def test_n_freq_accepts_the_grid_cap():
    assert _n_freq(None, {"n_freq": MAX_GRID_POINTS}) == MAX_GRID_POINTS
    assert _n_freq(3, {}) == 3


@pytest.mark.parametrize("command", ["sweep", "estimate", "divisibility", "oracle-check"])
def test_unknown_run_field_exits_2(tmp_path, command, capsys):
    doc = dict(BASELINE, run={"n_frq": 5, "grid": "60:100:1"})
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: run.n_frq: unknown field\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sweep", "estimate", "divisibility", "oracle-check"])
@pytest.mark.parametrize("value", [5, 0, ["60", "100", "1"], "60:100"])
def test_bad_run_grid_names_run_grid(tmp_path, command, value, capsys):
    doc = dict(BASELINE, run={"grid": value})
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: run.grid: ")
    assert captured.out == ""


@pytest.mark.parametrize("flag, run, field", [
    (["--grid=-100:-50:10"], {}, "grid"),
    (["--grid=-0.5:60:20"], {}, "grid"),
    ([], {"grid": "-100:-50:10"}, "run.grid"),
])
def test_oracle_check_rejects_negative_times(tmp_path, flag, run, field, capsys):
    # the oracle compares no state before t = 0, so such a grid checks nothing
    doc = dict(BASELINE, run=run)
    argv = ["oracle-check", "--config", write_config(tmp_path, doc), *flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {field}: times must not be negative")
    assert captured.out == ""


@pytest.mark.parametrize("mu", [1e14, 1e300])
def test_oracle_check_rejects_a_mu_too_large_for_its_grid(tmp_path, mu, capsys):
    # the 2001 frequencies over mu +- 8 sigma round onto each other
    doc = dict(BASELINE, distribution={"mu_over_sigma": mu})
    assert main(["oracle-check", "--config", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"config error: distribution.mu_over_sigma: {mu:g} is too large for a uniform "
        "grid of n_freq=2001 frequencies"
    )
    assert captured.out == ""


def test_oracle_check_warns_when_quadrature_aliases(capsys):
    code = main([
        "oracle-check", "--config", "preset:dtau10",
        "--grid", "8737:8737:1", "--n-freq", "201",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "verdict: FAIL" in captured.out
    assert "warning:" not in captured.out
    assert "n_freq=201" in captured.err
    assert "t=8737" in captured.err
    assert "68.5398" in captured.err
    assert "measures the quadrature, not the closed forms" in captured.err


def test_oracle_check_alias_warning_boundary(capsys):
    # for dtau10 at n_freq=201 the largest component delay reaches
    # 2*pi/h - 10 = 68.54 at t = 5899.98
    for spec, warns in (("5899:5899:1", False), ("5901:5901:1", True)):
        code = main([
            "oracle-check", "--config", "preset:dtau10",
            "--grid", spec, "--n-freq", "201",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert ("warning:" in captured.err) == warns, spec


@pytest.mark.parametrize("name", PRESETS)
def test_oracle_check_default_run_is_silent(name, capsys):
    assert main(["oracle-check", "--config", f"preset:{name}"]) == 0
    assert capsys.readouterr().err == ""


def test_oracle_check_warns_when_phase_rounding_can_fail_it(tmp_path, capsys):
    # at mu = 1e12 the arm phases n t omega reach ~1e14, whose rounding alone
    # makes the closed forms and the oracle disagree
    doc = dict(BASELINE, distribution={"mu_over_sigma": 1e12})
    assert main(["oracle-check", "--config", write_config(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert "verdict: FAIL" in captured.out
    assert captured.err.startswith("warning: the rounding of the largest phase omega * x")
    assert "measures the rounding, not the closed forms" in captured.err


def test_default_oracle_times_evaluate_the_output_start_once():
    cfg, _ = load_config(preset_path("dtau10"))
    times = _default_times(cfg)
    assert len(times) == 19
    assert times.count(cfg.window_out.t_start) == 1
    assert times == sorted(times)


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

ALL_COMMANDS = ["sweep", "estimate", "divisibility", "oracle-check"]


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("section", ["arm0", "arm1", "output"])
def test_a_delay_whose_square_overflows_exits_2(tmp_path, command, section, capsys):
    # 1e300 * 40 squared is beyond the float range; tier-1 turns numpy's
    # overflow RuntimeWarning into an error
    doc = dict(BASELINE, **{section: {**BASELINE[section], "n_h": 1e300}})
    argv = [command, "--config", write_config(tmp_path, doc), "--grid", "60:100:1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {section}.n_h: delay ")
    assert captured.err.endswith(" overflows when squared\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_a_delay_whose_square_overflows_on_the_default_range_names_its_arm(
    tmp_path, command, capsys
):
    # the automatic scan range then ends past 1e303; the arm is named, not
    # the output that the range stretches
    doc = dict(BASELINE, arm0={**BASELINE["arm0"], "n_h": 1e300})
    argv = [command, "--config", write_config(tmp_path, doc)]
    if command in ("sweep", "divisibility"):
        argv += ["--grid", "60:100:1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: arm0.n_h: delay 5e+301 overflows when squared\n"
    )


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_an_infinite_arm_delay_is_named_by_its_field(tmp_path, command, capsys):
    # 1e307 * 50 is already infinite before it is squared
    doc = dict(BASELINE, arm0={**BASELINE["arm0"], "n_h": 1e307})
    argv = [command, "--config", write_config(tmp_path, doc), "--grid", "60:100:1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: arm0.n_h: delay inf overflows when squared\n"


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_a_phase_that_overflows_exits_2(tmp_path, command, capsys):
    # mu times the dtau10 delays of ~100 is beyond the float range
    doc = dict(BASELINE, distribution={"mu_over_sigma": 1.7e308})
    argv = [command, "--config", write_config(tmp_path, doc), "--grid", "60:100:1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: distribution.mu_over_sigma: 1.7e+308 turns ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["estimate", "oracle-check"])
def test_a_phase_that_overflows_on_the_default_range_exits_2(tmp_path, command, capsys):
    # without --grid both commands read the interference weights for their
    # default range; mu times the arm delay 77.65 is beyond the float range
    doc = dict(BASELINE, distribution={"mu_over_sigma": 1e308})
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr() == ("", (
        "config error: distribution.mu_over_sigma: 1e+308 turns the delay 77.65 "
        "of arm0.n_h into a phase that overflows\n"))


def test_missing_config_file_exits_2(capsys):
    assert main(["sweep", "--config", "/nonexistent.json", "--grid", "0:1:1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for content in (b"{not json", b"\xff\xfe{}"):  # bad syntax, bad UTF-8
        path.write_bytes(content)
        assert main(["estimate", "--config", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the parser and the console entry point
# ---------------------------------------------------------------------------

def test_main_builds_the_parser_once(monkeypatch, capsys):
    from mzdephase import cli

    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["estimate", "--config", "preset:dtau10"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    out = capsys.readouterr().out
    assert out.count("peak_total_interaction_time") == 2


def _exit_and_output(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    captured = capsys.readouterr()
    return caught.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["oracle-check", "--help"], 0),
    ([], 2),
    (["sweep"], 2),
    (["oracle-check", "--config", "preset:dtau10", "--n-freq", "many"], 2),
])
def test_help_and_usage_errors_are_unchanged_on_every_call(argv, code, capsys):
    from mzdephase.cli import build_parser

    with pytest.raises(SystemExit) as caught:
        build_parser().parse_args(argv)
    fresh = capsys.readouterr()
    assert caught.value.code == code
    for _ in range(2):
        assert _exit_and_output(argv, capsys) == (code, fresh.out, fresh.err)


def _pipe_without_reader():
    """The write end of a pipe whose reader is gone before anything is written."""
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _run_python(args, **kwargs):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)



def test_importing_the_cli_loads_no_importlib_resources():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # importlib.resources brings pathlib, tempfile and zipfile into the
    # start-up of every command; -S keeps the site module from importing it
    # first, so only numpy and src are on the path
    numpy_dir = Path(np.__file__).resolve().parents[1]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (numpy_dir, src)))}
    script = "import sys, numpy, mzdephase.cli; print('importlib.resources' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

def test_closed_stdout_exits_1_without_a_traceback():
    import os
    import subprocess

    write_end = _pipe_without_reader()
    try:
        proc = _run_python(
            ["-m", "mzdephase.cli", "divisibility",
             "--config", "preset:dtau10", "--grid", "60:3000:1"],
            stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_broken_out_pipe_propagates_and_leaves_stdout_alone():
    import os

    # the console entry point with --out a pipe without reader: the error is
    # not taken for a closed standard output, which keeps working
    script = (
        "from mzdephase import cli\n"
        "try:\n"
        "    cli.console()\n"
        "except BrokenPipeError:\n"
        "    print('stdout still open')\n"
    )
    write_end = _pipe_without_reader()
    try:
        proc = _run_python(
            ["-c", script, "sweep", "--config", "preset:dtau10",
             "--grid", "60:3000:1", "--out", f"/dev/fd/{write_end}"],
            pass_fds=(write_end,), capture_output=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"stdout still open\n", b"")


def test_main_lets_a_broken_pipe_through():
    import os

    # main is the in-process API: it neither swallows the error nor touches
    # the process's standard output
    write_end = _pipe_without_reader()
    try:
        with pytest.raises(BrokenPipeError):
            main(["sweep", "--config", "preset:dtau10", "--grid", "60:3000:1",
                  "--out", f"/dev/fd/{write_end}"])
    finally:
        os.close(write_end)
