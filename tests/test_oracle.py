import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import PRESETS, preset, random_config
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdephase import oracle
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


def _oracle_state(cfg, grid, t, stage, conditioning=None):
    """The oracle's polarization state at time t: the path blocks of the
    stage traced over the path (conditioning None) or projected on one path
    or port, normalized; a conditioning weight of zero raises."""
    (p_h, p_v, c), norm = oracle._conditioned(
        oracle._path_blocks(cfg, grid, np.array([t]), stage), [conditioning])
    if norm[0] < oracle._CONDITION_TOL:
        raise oracle._impossible(norm[0])
    return DensityMatrix(p_h[0] / norm[0], p_v[0] / norm[0], c[0, 0] / norm[0])


def _oracle_port_probabilities(cfg, grid, t):
    """The oracle's output-port weights at time t."""
    populations, _ = oracle._path_blocks(cfg, grid, np.array([t]), "outside")
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
    with pytest.raises(ValueError):
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
    from mzdephase.oracle import _amplitudes

    psi = _amplitudes(baseline, grid, np.array([30.0]))[0]
    for j in (0, 1):
        weight = np.sum(np.abs(psi[j]) ** 2)
        assert weight == pytest.approx(0.5, abs=1e-12)


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
        oracle._path_blocks(baseline, grid, np.array([0.0]), "nowhere")


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

def _per_cell_compare(cfg, grid, times):
    """oracle_compare as one _oracle_state (and port-weight) call per cell."""
    from mzdephase import interferometer as itf

    cells = {
        "path0": ("inside", 0, lambda t: itf.path_state_inside(cfg, 0, t)),
        "path1": ("inside", 1, lambda t: itf.path_state_inside(cfg, 1, t)),
        "joint_inside": ("inside", None, lambda t: itf.joint_state_inside(cfg, t)),
        "path0_out": ("outside", 0, lambda t: itf.conditional_state_outside(cfg, 0, t)),
        "path1_out": ("outside", 1, lambda t: itf.conditional_state_outside(cfg, 1, t)),
        "joint_out": ("outside", None, lambda t: itf.averaged_state_outside(cfg, t)),
    }
    p_analytic = itf.path_probabilities(cfg)
    start = cfg.window_out.t_start
    worst_state = worst_prob = 0.0
    for stage, conditioning, reference in cells.values():
        if stage == "outside" and conditioning is not None:
            if p_analytic[conditioning] < itf.DARK_PORT_TOL:
                continue
        for t in times:
            if (stage == "inside" and not 0 <= t <= start) or (
                stage == "outside" and t < start
            ):
                continue
            simulated = _oracle_state(cfg, grid, t, stage, conditioning)
            worst_state = max(worst_state, trace_distance(reference(t), simulated))
            if stage == "outside":
                p = _oracle_port_probabilities(cfg, grid, t)
                worst_prob = max(
                    worst_prob, abs(p[0] - p_analytic[0]), abs(p[1] - p_analytic[1])
                )
    return worst_state, worst_prob


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


def test_amplitudes_of_a_time_array_match_each_time(grid, baseline):
    from mzdephase.oracle import _amplitudes

    times = np.array([0.0, 12.5, 50.0, 60.0, 400.0])
    batch = _amplitudes(baseline, grid, times)
    assert batch.shape == (len(times), 2, 2, len(grid.omegas))
    for t, psi in zip(times, batch):
        np.testing.assert_array_equal(psi, _amplitudes(baseline, grid, np.array([t]))[0])


def _reference_blocks(cfg, grid, times, stage):
    """Blocks rho[time, path, a, b] of each time straight from its
    amplitudes: psi psi^H inside; outside, the closed arms mixed by the beam
    splitter and each polarization multiplied by its own output phase before
    psi psi^H."""
    from mzdephase.oracle import _amplitudes

    out = cfg.window_out
    blocks = []
    for t in times:
        if stage == "inside":
            psi = _amplitudes(cfg, grid, np.array([t]))[0]
        else:
            arms = _amplitudes(cfg, grid, np.array([out.t_start]))[0]
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
    from mzdephase.oracle import _path_blocks

    grid = FrequencyGrid.build(cfg.dist, n=801)
    start = cfg.window_out.t_start
    stage_times = {
        "inside": np.linspace(0.0, start, 11),
        "outside": np.linspace(start, start + 4000.0, 41),
    }
    for stage, times in stage_times.items():
        times = times[max_component_delay(cfg, times) <= alias_free_delay(grid)]
        assert len(times) > 5
        populations, coherence = _path_blocks(cfg, grid, times, stage)
        want = _reference_blocks(cfg, grid, times, stage)
        for at_t in want:
            np.testing.assert_allclose(
                at_t[:, [0, 1], [0, 1]], populations, rtol=0, atol=1e-9, err_msg=stage)
        np.testing.assert_allclose(coherence, want[:, :, 0, 1], rtol=0, atol=1e-9, err_msg=stage)


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
    from mzdephase.oracle import _grid_phases

    grid = FrequencyGrid.build(FrequencyDistribution(mu), n)
    period = 2.0 * np.pi / grid.step
    x = np.concatenate([
        np.linspace(-period, period, 41),
        np.random.default_rng(n).uniform(-period, period, 61),
    ]).reshape(3, 34)
    got = _grid_phases(x, grid)
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
    got = _fourier_sums(x, g, grid)
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


def _per_cell_inside_error(cfg, blocks, times):
    """The error the first failing inside cell raises when the cells are
    evaluated one by one, time after time, in the default location order
    (path0, path1, joint_inside), the simulated state before the closed form."""
    from mzdephase import interferometer as itf
    from mzdephase.core import DensityMatrix

    populations, coherence = blocks
    closed = (
        lambda t: itf.path_state_inside(cfg, 0, t),
        lambda t: itf.path_state_inside(cfg, 1, t),
        lambda t: itf.joint_state_inside(cfg, t),
    )
    try:
        for t, at_t in zip(times, coherence):
            for c, reference in zip((0, 1, None), closed):
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


@pytest.mark.parametrize("spoil", [
    ([0], []),
    ([1], [(0, 0)]),
    ([1], [(2, 0)]),
    ([], [(0, 1)]),
    ([], [(3, 0), (1, 1)]),
    ([0, 1], []),
])
def test_batched_errors_name_the_first_failing_cell(baseline, grid, monkeypatch, spoil):
    # the empty paths have zero populations and coherences at every time;
    # each cell (time, path) not positive semidefinite has its coherence
    # raised
    empty, not_psd = spoil
    times = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    populations, coherence = oracle._path_blocks(baseline, grid, times, "inside")
    for path in empty:
        populations[path] = coherence[:, path] = 0.0
    for k, path in not_psd:
        coherence[k, path] += 1.0
    blocks = populations, coherence
    monkeypatch.setattr(oracle, "_path_blocks", lambda *args: blocks)
    want = _per_cell_inside_error(baseline, blocks, times)
    assert want is not None
    with pytest.raises(want[0]) as caught:
        oracle_compare(baseline, grid, times)
    assert str(caught.value) == want[1]


def test_compare_names_the_impossible_conditioning_weight(baseline, grid, monkeypatch):
    times = np.array([100.0, 200.0])
    populations, coherence = oracle._path_blocks(baseline, grid, times, "outside")
    populations[1] = coherence[:, 1] = 0.0
    monkeypatch.setattr(oracle, "_path_blocks", lambda *args: (populations, coherence))
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
    populations, coherence = oracle._path_blocks(baseline, grid, times, "inside")
    if spoil_simulated:
        coherence[1, 0] += 1.0
    closed = oracle._closed_form_states

    def spoiled(cfg, stage, conditioning, at, pol):
        pop_h, pop_v, coh = closed(cfg, stage, conditioning, at, pol)
        coh = coh.copy()
        coh[1] = np.nan
        return pop_h, pop_v, coh

    monkeypatch.setattr(oracle, "_path_blocks", lambda *args: (populations, coherence))
    monkeypatch.setattr(oracle, "_closed_form_states", spoiled)
    with pytest.raises(ValueError, match=message):
        oracle_compare(baseline, grid, times)
