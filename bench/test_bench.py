"""Tests of the benchmark itself: statistics and span arithmetic, seeded
inputs, and that every output check rejects a slightly perturbed output.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""
import copy
import json
import math
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import mzdephase
from bench import checks, hostspeed, inputs, run, spans, workloads
from bench import reference as ref
from mzdephase import analysis, cli, interferometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _recorder(rows):
    """A recorder holding made-up spans (name, parent, start, end)."""
    rec = spans.SpanRecorder()
    for name, parent, start, end in rows:
        rec.name.append(rec.name_id(name))
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_time_subtracts_direct_children_only():
    rec = _recorder([
        ("outer", -1, 0.0, 10.0),
        ("mid", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("mid", 0, 5.0, 9.0),
        ("outer", -1, 20.0, 21.5),
    ])
    table = rec.table()
    assert table["outer"] == {"calls": 2, "total_s": 11.5, "self_s": 3.0 + 1.5}
    assert table["mid"] == {"calls": 2, "total_s": 7.0, "self_s": 2.0 + 4.0}
    assert table["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_wrapped_calls_record_nesting_and_counters():
    rec = spans.SpanRecorder()
    inner = rec.wrap(lambda x: x + 1, "inner", count=lambda a, k: a[0])
    outer = rec.wrap(lambda x: inner(x) * inner(x), "outer")
    assert outer(2) == 9
    assert list(rec.parent) == [-1, 0, 0]
    assert rec.counters == {"inner": 4}
    table = rec.table()
    assert table["outer"]["calls"] == 1 and table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] <= table["outer"]["total_s"]


def test_install_wraps_lookups_inside_the_package_and_restores():
    original = analysis.conditional_state_outside
    rec = spans.SpanRecorder()
    restore = spans.install(rec, mzdephase)
    try:
        assert analysis.conditional_state_outside is not original
        cfg, _ = cli.load_config("preset:dtau10")
        analysis.trace_distance_series(cfg, "path0_out", [60.0, 61.0])
    finally:
        restore()
    assert analysis.conditional_state_outside is original
    table = rec.table()
    assert table["analysis.trace_distance_series"]["calls"] == 1
    assert table["interferometer.conditional_state_outside"]["calls"] == 4
    assert table["core.DensityMatrix"]["calls"] >= 4
    assert table["core.trace_distance"]["calls"] == 2


def test_percentiles():
    assert spans.median([3.0, 1.0, 2.0, 10.0]) == 2.5
    assert spans.tail_percentile(list(range(39))) is None
    values = [float(v) for v in range(1, 101)]
    assert spans.tail_percentile(values) == (90.0, 90.0)
    assert spans.tail_percentile([float(v) for v in range(1, 1001)]) == (99.0, 990.0)
    assert spans.tail_percentile([float(v) for v in range(1, 10001)]) == (99.9, 9990.0)


def test_host_speed_scale_uses_bracketing_blocks_and_ticks():
    probe = hostspeed.Probe()
    ref_s = hostspeed.KERNEL_REF_S
    probe.blocks = [ref_s, 3 * ref_s, 2 * ref_s]
    probe.ticks = [[2 * ref_s, 2 * ref_s], [], []]
    # samples 1, 3, 2, 2 (mean 2) and 3, 2 (mean 2.5), in units of ref_s
    assert probe.scale([4.0, 5.0]) == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError):
        probe.scale([1.0])
    probe.discard()
    assert probe.blocks == [ref_s, 3 * ref_s] and len(probe.ticks) == 2


def test_stopwatch_leaves_out_the_ticks_taken_during_it():
    probe = hostspeed.Probe()
    probe.block()
    t0 = time.perf_counter()
    with hostspeed.Stopwatch(probe) as watch:
        while time.perf_counter() - t0 < 3.5 * hostspeed.TICK_S:
            pass
    wall = time.perf_counter() - t0
    in_ticks = sum(probe.ticks[-1]) / hostspeed.REPEATS
    assert len(probe.ticks[-1]) >= 2
    assert in_ticks <= wall - watch.elapsed < in_ticks + 0.01
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[2] for k, v in run.PER_LAYER.items()
    }


def test_same_seed_same_inputs():
    a, b, c = inputs.scan_inputs(5), inputs.scan_inputs(5), inputs.scan_inputs(6)
    assert [x.doc for x in a] == [x.doc for x in b]
    assert all(np.array_equal(x.grid, y.grid) for x, y in zip(a, b))
    assert [x.doc for x in a] != [x.doc for x in c]
    docs = inputs.preset_docs(SRC)
    first, second = inputs.oracle_commands(5, docs), inputs.oracle_commands(5, docs)
    assert [x.argv for x in first] == [x.argv for x in second]
    assert inputs.round_order(5, 1, 10) == inputs.round_order(5, 1, 10)
    assert sorted(inputs.round_order(5, 1, 10)) == list(range(10))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_configs_validate_inside_the_estimator_regime(seed):
    for item in inputs.scan_inputs(seed):
        cfg, _ = cli.build_config(copy.deepcopy(item.doc))
        kh, kv = interferometer.interference_kappas(cfg)
        assert max(abs(kh), abs(kv)) < analysis.INTERFERENCE_TOL
        assert cfg.window_out.delta_n != 0.0
        assert item.scan == ref.estimator_scan(ref.Setup(item.doc))


def test_oracle_times_stay_alias_free():
    docs = inputs.preset_docs(SRC)
    for cmd in inputs.oracle_commands(3, docs):
        s = ref.Setup(docs[cmd.preset])
        assert np.max(ref.max_delay(s, cmd.times)) <= ref.alias_free_delay(cmd.n_freq)
    # the alias the oracle hits on dtau10 at t = 8737 with 201 points lies beyond
    s = ref.Setup(docs["dtau10"])
    assert ref.alias_horizon(s, 201) < 8737.0
    assert ref.max_delay(s, 8737.0) > ref.alias_free_delay(201)


def _edit(text, line, col, value):
    """``text`` with one CSV cell replaced."""
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[col] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def _sweep(argv):
    _, (rc, out, err) = workloads._run_cli(cli, argv)
    assert rc == 0
    return out


@pytest.mark.parametrize("preset,grid,locations", [
    ("dtau10", "60:200:1", inputs.SWEEP_DEFAULT_LOCATIONS),
    ("dtau0", "60:200:1", inputs.SWEEP_DEFAULT_LOCATIONS),
    ("dtau2p5", "0:60:0.5", inputs.SWEEP_INSIDE_LOCATIONS),
])
def test_sweep_check_accepts_the_program_and_rejects_perturbations(preset, grid, locations):
    argv = ["sweep", "--config", f"preset:{preset}", "--grid", grid,
            "--locations", ",".join(locations)]
    out = _sweep(argv)
    expect = checks.expected_sweep(inputs.preset_docs(SRC)[preset],
                                   inputs.parse_grid(grid), locations)
    assert checks.check_sweep_csv(out, expect) == []

    row = out.split("\n")[7].split(",")
    col = 1 if row[1] else 3
    assert checks.check_sweep_csv(_edit(out, 7, col, format(float(row[col]) + 1e-9, ".17g")),
                                  expect)
    assert checks.check_sweep_csv(_edit(out, 7, col, ""), expect)
    assert checks.check_sweep_csv(out[:-1], expect)
    assert checks.check_sweep_csv(out[:out.rindex("\n", 0, -1) + 1], expect)


def test_sweep_check_rejects_a_value_in_a_dark_column():
    grid = "60:80:1"
    out = _sweep(["sweep", "--config", "preset:dtau0", "--grid", grid])
    expect = checks.expected_sweep(inputs.preset_docs(SRC)["dtau0"],
                                   inputs.parse_grid(grid), inputs.SWEEP_DEFAULT_LOCATIONS)
    assert expect["columns"]["path1_out"] is None
    assert out.split("\n")[3].split(",")[2] == ""
    assert checks.check_sweep_csv(_edit(out, 3, 2, "0"), expect)


@pytest.fixture(scope="module")
def scan_case():
    wl = workloads.ScanMany(mzdephase, seed=11, docs={})
    item = wl.items[0]
    _, (result, caught) = wl.call(item)
    assert caught == []
    return item, result


def _perturbations(result, grid):
    step = float(np.max(np.diff(grid)))
    yield "peak", dict(peak=result.peak - 1e-6)
    yield "t_max", dict(t_max=result.t_max + 1.0)
    yield "estimate", dict(estimate=result.estimate * (1 + 1e-9))
    yield "p", dict(p=(result.p[0] + 1e-9, result.p[1] - 1e-9))
    yield "p-sum", dict(p=(result.p[0] + 1e-12, result.p[1]))
    series = [v.copy() for v in result.series]
    series[1][len(grid) // 2] += 1e-9
    yield "series", dict(series=series)
    yield "blp", dict(blp=[result.blp[0], result.blp[1] + 1e-9])
    moved = [(lo + 2 * step, hi + 2 * step) for lo, hi in result.non_cp[0]]
    yield "non_cp", dict(non_cp=[moved, result.non_cp[1]])
    yield "no-intervals", dict(non_cp=[[], result.non_cp[1]], backflow=[[], result.backflow[1]])
    yield "flagged_cp", dict(flagged_cp=[[True] + result.flagged_cp[0][1:], result.flagged_cp[1]])
    yield "falling_cp", dict(falling_cp=[result.falling_cp[0], [False] + result.falling_cp[1][1:]])
    yield "falling_cp-empty", dict(falling_cp=[[], result.falling_cp[1]])


def test_scan_check_accepts_the_program(scan_case):
    item, result = scan_case
    assert checks.check_scan(result, item.doc, item.scan, item.grid) == []
    assert all(result.flagged_cp) and all(result.falling_cp)


def test_scan_check_rejects_each_perturbation(scan_case):
    item, result = scan_case
    for label, change in _perturbations(result, item.grid):
        broken = copy.copy(result)
        for key, value in change.items():
            setattr(broken, key, value)
        assert checks.check_scan(broken, item.doc, item.scan, item.grid), label


def test_oracle_check_accepts_the_program_and_rejects_failures():
    cmd = inputs.oracle_commands(0, inputs.preset_docs(SRC))[1]
    _, (rc, out, err) = workloads._run_cli(cli, cmd.argv)
    assert checks.check_oracle(rc, out) == [] and err == ""
    assert checks.check_oracle(1, out)
    assert checks.check_oracle(rc, out.replace("PASS", "FAIL"))
    for key, bad in (("max_deviation", 2e-5), ("probability_deviation", 2e-8)):
        line = next(x for x in out.splitlines() if x.startswith(key + ":"))
        assert checks.check_oracle(rc, out.replace(line, f"{key}: {bad!r}"))
    assert checks.check_oracle(rc, "")


def test_oracle_cells_skip_dark_ports():
    docs = inputs.preset_docs(SRC)
    times = [0.0, 30.0, 60.0, 100.0]
    assert checks.oracle_cells(docs["dtau10"], times) == 3 * 3 + 3 * 2
    assert checks.oracle_cells(docs["dtau0"], times) == 3 * 3 + 2 * 2


def test_reference_matches_the_program_on_every_location():
    grid = np.linspace(0.0, 60.0, 31)
    outside = np.linspace(60.0, 3000.0, 50)
    for name, doc in inputs.preset_docs(SRC).items():
        cfg, _ = cli.load_config(f"preset:{name}")
        s = ref.Setup(doc)
        for loc in analysis.LOCATIONS:
            times = grid if loc in inputs.SWEEP_INSIDE_LOCATIONS else outside
            want = ref.trace_distance(s, loc, times)
            if want is None:
                continue
            got = analysis.trace_distance_series(cfg, loc, times).values
            assert np.max(np.abs(got - want)) < checks.CELL_TOL, (name, loc)
        assert math.isclose(sum(ref.port_probabilities(s)), 1.0, abs_tol=1e-15)

