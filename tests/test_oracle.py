import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import PRESETS, preset, random_config
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdephase import oracle
from mzdephase.cli import ORACLE_CHECK_THRESHOLD, ORACLE_PROB_THRESHOLD
from mzdephase.core import (
    DensityMatrix,
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
    effective_time,
    pure_density,
    trace_distance,
)
from mzdephase.errors import ImpossibleOutcome
from mzdephase.interferometer import (
    LOCATION_STAGES,
    coherence_factors,
    conditional_state_outside,
)
from mzdephase.oracle import (
    FrequencyGrid,
    alias_free_delay,
    max_component_delay,
    oracle_compare,
)

DIST = FrequencyDistribution(400.0)


def _state_of(blocks, conditioning=None):
    """The polarization state of the path blocks of one time, traced over
    the path (conditioning None) or projected on one path or port,
    normalized; a conditioning weight of zero raises."""
    populations, coherence = blocks
    if conditioning is None:
        (p_h, p_v), c = populations.sum(axis=0), coherence[0].sum()
    else:
        (p_h, p_v), c = populations[conditioning], coherence[0, conditioning]
    norm = p_h + p_v
    if norm < oracle._CONDITION_TOL:
        raise oracle._impossible(norm)
    return DensityMatrix(p_h / norm, p_v / norm, c / norm)


def _blocks(cfg, grid, times, stage):
    """The oracle's blocks of one stage at ``times``, from the start
    amplitudes of the grid."""
    return oracle._stage_blocks(cfg, grid, oracle._start_amplitudes(grid), times, stage)


def _oracle_state(cfg, grid, t, stage, conditioning=None):
    """The oracle's polarization state at time t in the given stage."""
    return _state_of(_blocks(cfg, grid, np.array([t]), stage), conditioning)


def _oracle_port_probabilities(cfg, grid, t):
    """The oracle's output-port weights at time t."""
    populations, _ = _blocks(cfg, grid, np.array([t]), "outside")
    p0, p1 = populations.sum(axis=-1)
    return float(p0), float(p1)


def _grid_over(dist, n, half_width):
    """The trapezoid grid of n points over mu +- half_width sigma, as
    FrequencyGrid.build makes it over mu +- 8 sigma."""
    omegas = np.linspace(dist.mu - half_width, dist.mu + half_width, n)
    weights = np.exp(-0.5 * (omegas - dist.mu) ** 2)
    weights[[0, -1]] *= 0.5
    return FrequencyGrid(omegas, weights / weights.sum())


@pytest.fixture(scope="module")
def grid():
    return FrequencyGrid.build(DIST)


# ---------------------------------------------------------------------------
# frequency grid
# ---------------------------------------------------------------------------

def test_default_grid_shape_and_normalization(grid):
    assert len(grid.omegas) == 2001
    assert grid.omegas[0] == pytest.approx(400.0 - 8.0)
    assert grid.omegas[-1] == pytest.approx(400.0 + 8.0)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError, match="^omegas must hold at least 3 points, got 2$"):
        FrequencyGrid(np.array([1.0, 2.0]), np.array([0.5, 0.5]))  # too short
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([1.0, 2.0, 1.5]), np.array([0.3, 0.4, 0.3]))
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.6, 0.5]))
    with pytest.raises(ValueError, match="^omegas must be uniform"):
        FrequencyGrid(np.array([1.0, 2.0, 3.5, 4.0]), np.full(4, 0.25))
    with pytest.raises(ValueError, match="^omegas must be uniform"):
        FrequencyGrid(np.linspace(1.0, 3.0, 201) ** 2, np.full(201, 1 / 201))


_OMEGAS = np.array([1.0, 2.0, 3.0])
_WEIGHTS = np.array([0.25, 0.5, 0.25])


@pytest.mark.parametrize("omegas, weights, message", [
    (np.array([1.0, np.nan, 3.0]), _WEIGHTS, "^omegas must be strictly increasing"),
    (np.array([np.nan, 2.0, 3.0]), _WEIGHTS, "^omegas must be strictly increasing"),
    (np.array([1.0, 2.0, np.inf]), _WEIGHTS, "^omegas must be finite"),
    (np.array([-np.inf, 2.0, 3.0]), _WEIGHTS, "^omegas must be finite"),
    (_OMEGAS, np.array([0.25, np.nan, 0.25]), "^weights must be non-negative"),
    # the first failing check is the one named: increasing before weights
    (np.array([1.0, np.nan, 3.0]), np.array([0.25, np.nan, 0.25]),
     "^omegas must be strictly increasing"),
], ids=["omega", "first-omega", "inf-omega", "-inf-omega", "weight", "omega-and-weight"])
def test_grid_validation_refuses_nan(omegas, weights, message):
    with pytest.raises(ValueError, match=message):
        FrequencyGrid(omegas, weights)


@pytest.mark.parametrize("times, bad", [
    ([np.nan], "time nan is not finite"),
    ([-5.0], "time -5.0 is negative"),
    ([100.0, np.inf, 200.0], "time inf is not finite"),
    ([30.0, -np.inf], "time -inf is not finite"),
    ([30.0, -1.0, np.nan], "time -1.0 is negative"),
    ([30.0, np.nan, -1.0], "time nan is not finite"),
])
def test_compare_names_the_first_time_not_finite_or_negative(times, bad):
    # such a time falls in no stage, and was skipped as if it had passed
    with pytest.raises(ValueError, match=f"^{bad}$"):
        oracle_compare(preset("dtau10"), FrequencyGrid.build(DIST, 201), times)


@pytest.mark.parametrize("times, message", [
    ([], "times is empty: there is nothing to compare"),
    (np.empty(0), "times is empty: there is nothing to compare"),
    ([[0.0], [70.0]], "times must be 1-D, got shape (2, 1)"),
    ([[]], "times must be 1-D, got shape (1, 0)"),
    (70.0, "times must be 1-D, got shape ()"),
], ids=["empty-list", "empty-array", "column", "empty-row", "scalar"])
def test_compare_refuses_times_it_cannot_score(times, message):
    # an empty times scored a perfect OracleDeviation(0.0, 0.0), and a column
    # of times was flattened silently
    cfg = preset("dtau10")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        oracle_compare(cfg, FrequencyGrid.build(cfg.dist, 201), times)


@pytest.mark.parametrize("n", [3, 4, 51, 201, 2001, 8001])
def test_every_increasing_grid_build_makes_is_uniform(n):
    # up to mu/sigma = 1e16 the linspace of mu +- 8 sigma either rounds two
    # frequencies onto each other, which build refuses, or passes as uniform
    for mu in [0.0, *np.logspace(-3.0, 16.0, 153)]:
        omegas = np.linspace(mu - 8.0, mu + 8.0, n)
        if np.all(np.diff(omegas) > 0):
            grid = FrequencyGrid.build(FrequencyDistribution(mu), n)
            np.testing.assert_array_equal(grid.omegas, omegas)
        else:
            with pytest.raises(ValueError, match="^omegas must be strictly increasing"):
                FrequencyGrid.build(FrequencyDistribution(mu), n)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_build_refuses_fewer_than_three_points(n):
    # the trapezoid rule halves the two end weights of at least 3 points
    with pytest.raises(ValueError, match=f"^n must be at least 3, got {n}$"):
        FrequencyGrid.build(DIST, n)


# ---------------------------------------------------------------------------
# oracle states
# ---------------------------------------------------------------------------

def test_initial_state_recovered(grid, baseline):
    got = _oracle_state(baseline, grid, 0.0, "inside")
    want = pure_density(baseline.pol).matrix
    np.testing.assert_allclose(got.matrix, want, atol=1e-12)


def test_port_weights_sum_to_one(grid, baseline):
    p0, p1 = _oracle_port_probabilities(baseline, grid, 200.0)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-10)


def test_inside_conditioning_probability_is_half(grid, baseline):
    psi = _reference_amplitudes(baseline, grid, 30.0)
    populations, _ = _blocks(baseline, grid, np.array([30.0]), "inside")
    for j in (0, 1):
        assert np.sum(np.abs(psi[j]) ** 2) == pytest.approx(0.5, abs=1e-12)
        assert populations[j].sum() == pytest.approx(0.5, abs=1e-12)


def test_conditional_states_match_closed_form(grid, baseline):
    rng = np.random.default_rng(55)
    for t in rng.uniform(60.0, 2500.0, size=20):
        simulated = _oracle_state(baseline, grid, t, "outside", 0)
        reference = conditional_state_outside(baseline, 0, t)
        assert trace_distance(reference, simulated) < 1e-6


_RNG = np.random.default_rng(77)
LAYER_CONFIGS = {name: preset(name) for name in PRESETS} | {
    f"random{k}": random_config(_RNG) for k in range(5)
}


@pytest.mark.parametrize("cfg", LAYER_CONFIGS.values(), ids=LAYER_CONFIGS.keys())
def test_coherence_factors_match_oracle_trace_distance(cfg):
    # the oracle evolves the |+> and |-> inputs directly and shares no code
    # with the closed-form table under coherence_factors
    grid = FrequencyGrid.build(cfg.dist, n=2001)
    start = cfg.window_out.t_start
    stage_times = {
        "inside": np.linspace(0.0, start, 9),
        "outside": np.linspace(start, start + 3000.0, 13),
    }
    pair = [replace(cfg, pol=s()) for s in (PolarizationState.plus, PolarizationState.minus)]
    for location, (stage, conditioning) in LOCATION_STAGES.items():
        times = stage_times[stage]
        assert np.all(max_component_delay(cfg, times) <= alias_free_delay(grid))
        try:
            got = np.abs(coherence_factors(cfg, location, times))
        except ImpossibleOutcome:
            with pytest.raises(ImpossibleOutcome):
                _oracle_state(pair[0], grid, times[0], stage, conditioning)
            continue
        want = [
            trace_distance(*(_oracle_state(c, grid, t, stage, conditioning) for c in pair))
            for t in times
        ]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=location)


def test_dark_port_conditioning_raises(grid):
    cfg = preset("dtau0")
    with pytest.raises(ImpossibleOutcome):
        _oracle_state(cfg, grid, 100.0, "outside", 1)


def test_unknown_stage_rejected(grid, baseline):
    with pytest.raises(ValueError, match="^unknown stage 'nowhere'$"):
        _blocks(baseline, grid, np.array([0.0]), "nowhere")


def test_populations_time_independent_after_exit(grid):
    cfg = preset("dtau0p5")
    pops = [
        _oracle_state(cfg, grid, t, "outside", 0).population_h
        for t in (60.0, 150.0, 400.0)
    ]
    assert np.ptp(pops) < 1e-12


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------

def test_symmetric_arms_all_locations(grid):
    import numpy as np

    from mzdephase.core import (
        InteractionWindow,
        InterferometerConfig,
        PolarizationState,
    )

    w = InteractionWindow(1.553, 1.544, 0.0, 50.0)
    out = InteractionWindow(1.553, 1.544, 50.0, np.inf)
    cfg = InterferometerConfig(DIST, w, w, out, PolarizationState.plus())
    times = list(np.linspace(0.0, 50.0, 6)) + list(np.linspace(50.0, 800.0, 8))
    result = oracle_compare(cfg, grid, times)
    assert result.max_deviation <= 1e-6


def test_port_probability_agreement(grid):
    cfg = preset("dtau0p5")
    result = oracle_compare(cfg, grid, list(np.linspace(60.0, 500.0, 10)))
    assert result.probability_deviation <= 1e-8


def test_quadrature_convergence(baseline):
    times = list(np.linspace(0.0, 60.0, 5)) + list(np.linspace(60.0, 2000.0, 8))
    dev_2001 = oracle_compare(baseline, FrequencyGrid.build(DIST, n=2001), times)
    dev_4001 = oracle_compare(baseline, FrequencyGrid.build(DIST, n=4001), times)
    assert dev_4001.max_deviation <= 10.0 * dev_2001.max_deviation


def test_random_configs_agree(grid):
    rng = np.random.default_rng(56)
    for _ in range(3):
        cfg = random_config(rng)
        g = FrequencyGrid.build(cfg.dist)
        start = cfg.window_out.t_start
        times = list(np.linspace(0.0, start, 4)) + list(
            start + np.linspace(0.0, 200.0, 6)
        )
        result = oracle_compare(cfg, g, times)
        assert result.max_deviation <= 1e-6
        assert result.probability_deviation <= 1e-8


def test_tail_truncation_sensitivity(baseline):
    # Halving the spectral range to +-4 sigma drops ~6e-5 of tail mass, which
    # bounds how much any state can move; measured worst case is ~5e-5.
    g8 = FrequencyGrid.build(DIST, n=2001)
    g4 = _grid_over(DIST, 1001, 4.0)
    worst = 0.0
    times_in = np.linspace(0.0, 60.0, 5)
    times_out = np.linspace(60.0, 2500.0, 9)
    for stage, conds, times in (
        ("inside", (None, 0, 1), times_in),
        ("outside", (None, 0, 1), times_out),
    ):
        for cond in conds:
            for t in times:
                a = _oracle_state(baseline, g8, t, stage, cond)
                b = _oracle_state(baseline, g4, t, stage, cond)
                worst = max(worst, trace_distance(a, b))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# fused, chunked comparison against per-cell evaluation
# ---------------------------------------------------------------------------

def _per_location_states(cfg):
    """The closed-form state of each location at time t, by stage and by
    conditioning in location order (path0, path1, joint_inside, then
    path0_out, path1_out, joint_out); a dark port has none."""
    from mzdephase import interferometer as itf

    states = {
        "inside": {
            0: lambda t: itf.path_state_inside(cfg, 0, t),
            1: lambda t: itf.path_state_inside(cfg, 1, t),
            None: lambda t: itf.joint_state_inside(cfg, t),
        },
        "outside": {
            0: lambda t: itf.conditional_state_outside(cfg, 0, t),
            1: lambda t: itf.conditional_state_outside(cfg, 1, t),
            None: lambda t: itf.averaged_state_outside(cfg, t),
        },
    }
    for port in (0, 1):
        if itf.path_probabilities(cfg)[port] < itf.DARK_PORT_TOL:
            del states["outside"][port]
    return states


def _per_cell_compare(cfg, grid, times):
    """oracle_compare one time at a time, unfused: the path blocks of each
    (time, stage), every conditioning state and both port weights of that
    time read from them, and each state compared with its closed form."""
    from mzdephase.interferometer import path_probabilities

    cells = _per_location_states(cfg)
    p_analytic = path_probabilities(cfg)
    start = cfg.window_out.t_start
    worst_state = 0.0
    # the port weights do not change with time: compared on every check,
    # also when no time reaches the output start
    p0, p1 = _blocks(cfg, grid, np.array([start]), "outside")[0].sum(axis=-1)
    worst_prob = max(abs(p0 - p_analytic[0]), abs(p1 - p_analytic[1]))
    for t in times:
        for stage, references in cells.items():
            if (stage == "inside" and not 0 <= t <= start) or (
                stage == "outside" and t < start
            ):
                continue
            blocks = _blocks(cfg, grid, np.array([t]), stage)
            for conditioning, reference in references.items():
                simulated = _state_of(blocks, conditioning)
                worst_state = max(worst_state, trace_distance(reference(t), simulated))
            if stage == "outside":
                p0, p1 = blocks[0].sum(axis=-1)
                worst_prob = max(
                    worst_prob, abs(p0 - p_analytic[0]), abs(p1 - p_analytic[1])
                )
    return worst_state, float(worst_prob)


def _assert_fused_matches_per_cell(cfg, grid, times):
    fused = oracle_compare(cfg, grid, times)
    per_cell = _per_cell_compare(cfg, grid, times)
    assert abs(fused.max_deviation - per_cell[0]) <= 1e-14
    assert abs(fused.probability_deviation - per_cell[1]) <= 1e-14


def test_fused_compare_matches_per_cell_random_configs():
    rng = np.random.default_rng(57)
    for _ in range(3):
        cfg = random_config(rng)
        grid = FrequencyGrid.build(cfg.dist, n=201)
        start = cfg.window_out.t_start
        times = [*rng.uniform(0.0, start, 5), start, start, *start + rng.uniform(0.0, 400.0, 7)]
        _assert_fused_matches_per_cell(cfg, grid, times)


@pytest.mark.parametrize("n", [51, 8001])
def test_fused_compare_spans_several_chunks(baseline, n):
    # a chunk holds _delays_per_chunk(n, blocks) delays: inside two per time,
    # one per path, of one block; outside one per time of two blocks, the ports
    from mzdephase.oracle import _delays_per_chunk

    count = max(_delays_per_chunk(n, 1) // 2, _delays_per_chunk(n, 2)) + 3
    start = baseline.window_out.t_start
    times = [*np.linspace(0.0, start, count), *np.linspace(start, 2000.0, count)]
    _assert_fused_matches_per_cell(baseline, FrequencyGrid.build(baseline.dist, n=n), times)


def test_fused_compare_skips_dark_port(grid):
    cfg = preset("dtau0")
    start = cfg.window_out.t_start
    times = [0.0, 30.0, start, start + 100.0, start + 700.0]
    _assert_fused_matches_per_cell(cfg, grid, times)


def _reference_amplitudes(cfg, grid, t):
    """Amplitudes psi[inside path, polarization, frequency] at time t, with
    one complex exp per frequency: half the input spectrum on each path,
    each polarization delayed by n t_eff of its arm."""
    pol = cfg.pol
    c = np.array([pol.c_h * np.exp(1j * pol.theta), pol.c_v])
    arms = (cfg.window0, cfg.window1)
    delays = np.array([[w.n_h, w.n_v] for w in arms]) * [[effective_time(w, t)] for w in arms]
    return c[:, None] * np.sqrt(grid.weights / 2.0) * np.exp(1j * delays[..., None] * grid.omegas)


def _reference_blocks(cfg, grid, times, stage):
    """Blocks rho[time, path, a, b] of each time straight from its
    amplitudes: psi psi^H inside; outside, the arms at the output start mixed
    by the beam splitter and each polarization multiplied by its own output
    phase before psi psi^H."""
    out = cfg.window_out
    blocks = []
    for t in times:
        if stage == "inside":
            psi = _reference_amplitudes(cfg, grid, t)
        else:
            arms = _reference_amplitudes(cfg, grid, out.t_start)
            psi = np.stack([arms[0] + arms[1], arms[0] - arms[1]]) / np.sqrt(2.0)
            tau = effective_time(out, t)
            psi = psi * np.exp(1j * np.outer([out.n_h, out.n_v], grid.omegas) * tau)
        blocks.append(psi @ psi.conj().swapaxes(-1, -2))
    return np.array(blocks)


def _zero_outside_birefringence():
    cfg = preset("dtau2p5")
    out = cfg.window_out
    return replace(cfg, window_out=InteractionWindow(out.n_v, out.n_v, out.t_start, out.t_stop))


_RNG_BLOCKS = np.random.default_rng(79)
BLOCK_CONFIGS = {name: preset(name) for name in PRESETS} | {
    f"random{k}": random_config(_RNG_BLOCKS) for k in range(4)
} | {
    # different indices, windows and starts on the two arms, a finite output
    # window, and a complex input with a relative phase
    "unequal_arms": InterferometerConfig(
        DIST,
        InteractionWindow(1.561, 1.549, 5.0, 45.0),
        InteractionWindow(1.540, 1.552, 12.0, 70.0),
        InteractionWindow(1.547, 1.556, 75.0, 900.0),
        PolarizationState(0.6, 0.8j, 1.1),
    ),
    "zero_outside_birefringence": _zero_outside_birefringence(),
}


@pytest.mark.parametrize("cfg", BLOCK_CONFIGS.values(), ids=BLOCK_CONFIGS.keys())
def test_path_blocks_match_per_time_amplitudes(cfg):
    # one Fourier sum per path or port against psi psi^H of every time; dtau0
    # has a dark output port, the random configs a nonzero theta
    grid = FrequencyGrid.build(cfg.dist, n=801)
    start = cfg.window_out.t_start
    stage_times = {
        "inside": np.linspace(0.0, start, 11),
        "outside": np.linspace(start, start + 4000.0, 41),
    }
    for stage, times in stage_times.items():
        times = times[max_component_delay(cfg, times) <= alias_free_delay(grid)]
        assert len(times) > 5
        populations, coherence = _blocks(cfg, grid, times, stage)
        want = _reference_blocks(cfg, grid, times, stage)
        for at_t in want:
            np.testing.assert_allclose(
                at_t[:, [0, 1], [0, 1]], populations, rtol=0, atol=1e-9, err_msg=stage)
        np.testing.assert_allclose(coherence, want[:, :, 0, 1], rtol=0, atol=1e-9, err_msg=stage)


_INDICES = st.floats(1.5, 1.58)
_BIREFRINGENCE = st.tuples(st.floats(0.003, 0.02), st.sampled_from([1.0, -1.0])).map(
    lambda pair: pair[0] * pair[1])


@st.composite
def _unequal_arm_configs(draw):
    """Arms with their own indices, starts and durations, closed before a
    finite output window opens, and an input with a relative phase."""

    def window(t_start, duration, n_v=None):
        n_v = draw(_INDICES) if n_v is None else n_v
        return InteractionWindow(n_v + draw(_BIREFRINGENCE), n_v, t_start, t_start + duration)

    arm0 = window(draw(st.floats(1.0, 20.0)), draw(st.floats(20.0, 60.0)))
    # arm 1 opens later, and its V delay lies within 3 / sigma of arm 0's, so
    # that the two arms interfere at the output ports
    n_v1 = draw(_INDICES)
    delay1 = arm0.n_v * (arm0.t_stop - arm0.t_start) + draw(st.floats(-3.0, 3.0))
    arm1 = window(arm0.t_start + draw(st.floats(1.0, 15.0)), delay1 / n_v1, n_v1)
    start = max(arm0.t_stop, arm1.t_stop) + draw(st.floats(0.0, 5.0))
    out = window(start, draw(st.floats(100.0, 1000.0)))
    angle = draw(st.floats(0.1, 1.47))
    pol = PolarizationState(
        math.cos(angle), math.sin(angle) * cmath.exp(1j * draw(st.floats(0.0, 6.28))),
        draw(st.floats(0.0, 6.28)))
    return InterferometerConfig(FrequencyDistribution(draw(st.floats(100.0, 2000.0))),
                                arm0, arm1, out, pol)


@settings(max_examples=20, deadline=None)
@given(cfg=_unequal_arm_configs())
def test_outside_blocks_match_per_time_amplitudes(cfg):
    # the output stage, built from the arm phases at the output start,
    # against psi psi^H of every time from one complex exp per frequency,
    # before and after the output window closes
    grid = FrequencyGrid.build(cfg.dist, n=801)
    out = cfg.window_out
    times = np.append(np.linspace(out.t_start, out.t_stop + 200.0, 16), out.t_stop)
    times = times[max_component_delay(cfg, times) <= alias_free_delay(grid)]
    populations, coherence = _blocks(cfg, grid, times, "outside")
    want = _reference_blocks(cfg, grid, times, "outside")
    for at_t in want:
        np.testing.assert_allclose(at_t[:, [0, 1], [0, 1]], populations, rtol=0, atol=1e-9)
    np.testing.assert_allclose(coherence, want[:, :, 0, 1], rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# quadrature alias bound
# ---------------------------------------------------------------------------

def test_alias_free_delay_is_period_less_margin():
    from mzdephase.oracle import ALIAS_MARGIN, alias_free_delay

    cfg = preset("dtau10")
    for n in (201, 2001):
        step = 16.0 / (n - 1)
        got = alias_free_delay(FrequencyGrid.build(cfg.dist, n=n))
        assert got == pytest.approx(2.0 * np.pi / step - ALIAS_MARGIN, rel=1e-12)


def test_max_component_delay_examples(baseline):
    from mzdephase.oracle import max_component_delay

    # before any coupling all four components are in phase; inside, the H
    # part of the longer arm leads the V part of the shorter one
    got = max_component_delay(baseline, [0.0, 60.0, 1060.0])
    lead = 1.553 * 60.0 - 1.544 * 50.0
    np.testing.assert_allclose(got, [0.0, lead, lead + 0.009 * 1000.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# phases and batched validation
# ---------------------------------------------------------------------------

def test_phase_matches_complex_exp_within_one_ulp():
    from mzdephase.oracle import _phase

    rng = np.random.default_rng(58)
    x = rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.uniform(0.0, 9.0, 100_000)
    got, want = _phase(x), np.exp(1j * x)
    for part in ("real", "imag"):
        g, w = getattr(got, part), getattr(want, part)
        assert np.all(np.abs(g - w) <= np.spacing(np.abs(w)))


@pytest.mark.parametrize("mu", [1.0, 400.0])
@pytest.mark.parametrize("n", [3, 4, 51, 2001, 8001])
def test_grid_phases_match_complex_exp(n, mu):
    # exp(i x omega_k) at k = a w + b as the product of the coarse phase a
    # and the fine phase b, as the output stage builds its arm amplitudes
    from mzdephase.oracle import _coarse_fine

    grid = FrequencyGrid.build(FrequencyDistribution(mu), n)
    period = 2.0 * np.pi / grid.step
    x = np.concatenate([
        np.linspace(-period, period, 41),
        np.random.default_rng(n).uniform(-period, period, 61),
    ]).reshape(3, 34)
    coarse, fine = _coarse_fine(x, grid)
    got = (coarse[..., None] * fine[..., None, :]).reshape(3, 34, -1)[..., :n]
    assert got.shape == (3, 34, n)
    want = np.exp(1j * x[..., None] * grid.omegas)
    bound = 8.0 * np.finfo(float).eps * period * np.max(np.abs(grid.omegas))
    assert np.max(np.abs(got - want)) <= bound


_FOLD_SIZES = st.one_of(
    st.sampled_from([3, 4, 2001, 8001]),
    # w^2 folds into w rows of w; w^2 - 1 and w^2 + 1 are zero-padded
    st.integers(2, 60).flatmap(lambda w: st.sampled_from([w * w - 1, w * w, w * w + 1])),
)


@settings(max_examples=60, deadline=None)
@given(n=_FOLD_SIZES, mu=st.floats(1.0, 1e3), blocks=st.sampled_from([1, 2]),
       count=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_fourier_sums_match_direct_sums(n, mu, blocks, count, seed):
    # the folded product against one complex exp per (delay, frequency); at
    # n=8001 two blocks and more than 184 delays span two chunks
    from mzdephase.oracle import _fourier_sums

    grid = FrequencyGrid.build(FrequencyDistribution(mu), n)
    period = 2.0 * np.pi / grid.step
    rng = np.random.default_rng(seed)
    x = rng.uniform(-period, period, count)
    g = rng.normal(size=(n, blocks)) + 1j * rng.normal(size=(n, blocks))
    # folded: block j, frequency k = a w + b at [j, a, b], zero past n
    w, rows = oracle._fold(n)
    folded = np.zeros((blocks, rows * w), dtype=complex)
    folded[:, :n] = g.T
    got = _fourier_sums(x, folded.reshape(blocks, rows, w), grid)
    assert got.shape == (count, blocks)
    want = np.exp(1j * x[:, None] * grid.omegas) @ g
    bound = 8.0 * np.finfo(float).eps * period * np.max(np.abs(grid.omegas))
    assert np.all(np.abs(got - want) <= bound * np.sum(np.abs(g), axis=0))


def test_oracle_evaluates_few_phases(monkeypatch):
    # factorised grid phases: about 2 sqrt(n) cos/sin per time, not n
    from mzdephase.cli import _default_times

    cfg = preset("dtau10")
    grid = FrequencyGrid.build(cfg.dist, n=8001)
    times = _default_times(cfg)
    phase, evaluated = oracle._phase, []

    def counted(x):
        evaluated.append(np.size(x))
        return phase(x)

    monkeypatch.setattr(oracle, "_phase", counted)
    oracle_compare(cfg, grid, times)
    assert 0 < sum(evaluated) < 0.05 * len(grid.omegas) * len(times)


def _per_cell_error(cfg, stage_blocks, stage_times):
    """The error the first failing cell raises when the cells are evaluated
    one by one, stage by stage from the inside one, time after time, in
    location order, the simulated state before the closed form."""
    from mzdephase.core import DensityMatrix

    closed = _per_location_states(cfg)
    try:
        for stage, references in closed.items():
            populations, coherence = stage_blocks[stage]
            for t, at_t in zip(stage_times[stage], coherence):
                for c, reference in references.items():
                    (p_h, p_v), coh = (
                        (populations.sum(axis=0), at_t.sum()) if c is None
                        else (populations[c], at_t[c]))
                    norm = float(p_h + p_v)
                    if norm < 1e-14:
                        raise ImpossibleOutcome(
                            f"conditioning weight {norm!r} is zero within tolerance"
                        )
                    DensityMatrix(p_h / norm, p_v / norm, coh / norm)
                    reference(float(t))
    except (ImpossibleOutcome, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _stage_blocks_returning(blocks):
    """A stand-in for oracle._stage_blocks that returns the given blocks of
    a stage and the oracle's own blocks of any other."""
    stage_blocks = oracle._stage_blocks

    def fake(cfg, grid, start, times, stage):
        if stage in blocks:
            return blocks[stage]
        return stage_blocks(cfg, grid, start, times, stage)

    return fake


# the cells spoiled in each stage: the empty paths or ports have zero
# populations and coherences at every time; each cell (time, path or port)
# not positive semidefinite has its coherence raised
@pytest.mark.parametrize("spoil", [
    {"inside": ([0], [])},
    {"inside": ([1], [(0, 0)])},
    {"inside": ([1], [(2, 0)])},
    {"inside": ([], [(0, 1)])},
    {"inside": ([], [(3, 0), (1, 1)])},
    {"inside": ([0, 1], [])},
    {"outside": ([], [(2, 0), (1, 1), (2, 1)])},
    {"inside": ([], [(4, 1)]), "outside": ([], [(0, 0)])},
])
def test_batched_errors_name_the_first_failing_cell(baseline, grid, monkeypatch, spoil):
    # both stages are validated as one batch: the first failing cell is the
    # one the per-cell evaluation meets first, an inside cell before any
    # outside one
    start = baseline.window_out.t_start
    stage_times = {
        "inside": np.array([0.0, 10.0, 20.0, 30.0, 40.0]),
        "outside": np.array([100.0, 200.0, 300.0]),
    }
    assert stage_times["inside"][-1] < start < stage_times["outside"][0]
    stage_blocks = {}
    for stage, times in stage_times.items():
        populations, coherence = _blocks(baseline, grid, times, stage)
        empty, not_psd = spoil.get(stage, ([], []))
        for path in empty:
            populations[path] = coherence[:, path] = 0.0
        for k, path in not_psd:
            coherence[k, path] += 1.0
        stage_blocks[stage] = populations, coherence
    monkeypatch.setattr(oracle, "_stage_blocks", _stage_blocks_returning(stage_blocks))
    want = _per_cell_error(baseline, stage_blocks, stage_times)
    assert want is not None
    with pytest.raises(want[0]) as caught:
        oracle_compare(baseline, grid, np.concatenate(list(stage_times.values())))
    assert str(caught.value) == want[1]


def test_compare_names_the_impossible_conditioning_weight(baseline, grid, monkeypatch):
    times = np.array([100.0, 200.0])
    populations, coherence = _blocks(baseline, grid, times, "outside")
    populations[1] = coherence[:, 1] = 0.0
    monkeypatch.setattr(oracle, "_stage_blocks",
                        _stage_blocks_returning({"outside": (populations, coherence)}))
    with pytest.raises(ImpossibleOutcome, match=r"^conditioning weight 0\.0 is zero within tolerance$"):
        oracle_compare(baseline, grid, times)


@pytest.mark.parametrize("spoil_simulated, message", [
    (True, r"^matrix is not positive semidefinite: min eig -\d"),
    (False, r"^matrix is not positive semidefinite: min eig nan$"),
])
def test_batched_check_reads_the_simulated_state_first(
    baseline, grid, monkeypatch, spoil_simulated, message
):
    # at the second time both the simulated and the closed-form path0 state
    # may fail, the closed form with a NaN coherence
    times = np.array([0.0, 10.0])
    populations, coherence = _blocks(baseline, grid, times, "inside")
    if spoil_simulated:
        coherence[1, 0] += 1.0
    closed = oracle._closed_form_states

    def spoiled(cfg, stage, conditioning, at, pol):
        pop_h, pop_v, coh = closed(cfg, stage, conditioning, at, pol)
        if (stage, conditioning) == ("inside", 0):
            coh = coh.copy()
            coh[1] = np.nan
        return pop_h, pop_v, coh

    monkeypatch.setattr(oracle, "_stage_blocks",
                        _stage_blocks_returning({"inside": (populations, coherence)}))
    monkeypatch.setattr(oracle, "_closed_form_states", spoiled)
    with pytest.raises(ValueError, match=message):
        oracle_compare(baseline, grid, times)


@pytest.mark.parametrize("name", PRESETS)
def test_port_probabilities_are_compared_on_inside_only_times(name):
    # the port weights do not change with time: a check whose times all lie
    # before the output start compares them too, where it reported 0
    cfg = preset(name)
    grid = FrequencyGrid.build(cfg.dist)
    start = cfg.window_out.t_start
    inside = np.linspace(0.0, start, 5)[:-1]
    got = oracle_compare(cfg, grid, inside).probability_deviation
    assert got == oracle_compare(cfg, grid, [*inside, start]).probability_deviation


@st.composite
def _closed_form_configs(draw):
    """Random configs, some with a dark port (identical arms), some with a
    bright port that takes no H light (equal H delays, different V ones), some
    without outside birefringence."""
    cfg = random_config(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    w0, w1 = cfg.window0, cfg.window1
    kind = draw(st.sampled_from(["random", "dark", "no_coherence"]))
    if kind == "dark":
        w1 = w0
    elif kind == "no_coherence":
        w1 = InteractionWindow(w0.n_h, w0.n_v + draw(st.floats(0.02, 0.05)), w0.t_start, w0.t_stop)
    out = cfg.window_out
    if draw(st.booleans()):
        out = InteractionWindow(out.n_v, out.n_v, out.t_start, out.t_stop)
    return InterferometerConfig(cfg.dist, w0, w1, out, cfg.pol)


@settings(max_examples=60, deadline=None)
@given(cfg=_closed_form_configs(), unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_closed_forms_pass_the_oracle_check(cfg, unit):
    # every location's closed form against the brute force, at times of both
    # stages that the grid resolves; a dark port is skipped.  The outside
    # times hold the centres a_i + dn_out T = 0 of both cross terms, where the
    # two ports' transfers differ most
    grid = FrequencyGrid.build(cfg.dist, n=801)
    start = cfg.window_out.t_start
    terms = cfg.outside_terms
    centres = [-a / terms.dn_out for a in (terms.a_1, terms.a_2)] if terms.dn_out else []
    totals = [*(3000.0 * u for u in unit), *(total for total in centres if total > 0)]
    times = np.concatenate([start * np.array(unit), start + np.array(totals)])
    times = times[max_component_delay(cfg, times) <= alias_free_delay(grid)]
    got = oracle_compare(cfg, grid, times)
    assert got.max_deviation <= ORACLE_CHECK_THRESHOLD
    assert got.probability_deviation <= ORACLE_PROB_THRESHOLD
