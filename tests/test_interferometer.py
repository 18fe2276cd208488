import copy
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import EQUAL_H, PRESETS, preset, random_config, random_polarization
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdephase import channels, core, interferometer, maps

from mzdephase.analysis import LOCATIONS, trace_distance_series
from mzdephase.cli import build_config
from mzdephase.core import (
    DensityMatrix,
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
    check_density_matrices,
    effective_time,
    kappa_of_delay,
    pure_density,
)
from mzdephase.errors import ImpossibleOutcome
from mzdephase.interferometer import (
    _lambda_of_total_time,
    _shifted_kappas,
    _states,
    averaged_state_outside,
    coherence_factors,
    conditional_state_outside,
    coherence_transfer,
    interference_kappas,
    joint_state_inside,
    path_probabilities,
    path_state_inside,
)

DIST = FrequencyDistribution(mu=400.0)


def symmetric_config(stop=50.0, pol=None):
    w = InteractionWindow(1.553, 1.544, 0.0, stop)
    out = InteractionWindow(1.553, 1.544, stop, np.inf)
    return InterferometerConfig(DIST, w, w, out, pol or PolarizationState.plus())


# ---------------------------------------------------------------------------
# joint and conditional states inside
# ---------------------------------------------------------------------------

def test_joint_inside_symmetric_arms_reduce_to_single_path(baseline):
    cfg = symmetric_config()
    for t in (0.0, 10.0, 37.5, 50.0):
        joint = joint_state_inside(cfg, t)
        single = path_state_inside(cfg, 0, t)
        np.testing.assert_allclose(joint.matrix, single.matrix, atol=1e-15)


def test_joint_inside_starts_at_initial_state(baseline):
    got = joint_state_inside(baseline, 0.0)
    np.testing.assert_allclose(got.matrix, pure_density(baseline.pol).matrix, atol=1e-15)


def test_joint_inside_baseline_coherence_at_exit(baseline):
    # |kappa_0(60) + kappa_1(60)| / 2 with delays 0.45 and 0.54, frozen
    got = joint_state_inside(baseline, 60.0)
    assert abs(got.coherence) == pytest.approx(0.5 * 0.583919620051536, rel=1e-10)


def test_joint_inside_rejects_times_past_output_start(baseline):
    for t in (60.5, -1.0):
        want = rf"^t={t} outside the inside region \[0, 60\.0\]$"
        with pytest.raises(ValueError, match=want):
            joint_state_inside(baseline, t)
        for j in (0, 1):
            with pytest.raises(ValueError, match=want):
                path_state_inside(baseline, j, t)
    for location in ("path0", "path1", "joint_inside"):
        for times in ([0.0, 60.0, 60.5], [-1.0, 0.0]):
            with pytest.raises(ValueError, match="outside the inside region"):
                coherence_factors(baseline, location, times)


def test_path_state_inside_matches_single_path(baseline):
    # the pure-dephasing state of one medium, from its decoherence factor
    pol = baseline.pol
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.0, 60.0, size=100):
        got = path_state_inside(baseline, 0, t)
        kappa = channels.single_path_kappa(baseline.window0, baseline.dist, pol.theta, t)
        coh = pol.c_h * pol.c_v.conjugate() * kappa
        want = DensityMatrix([[abs(pol.c_h) ** 2, coh], [coh.conjugate(), abs(pol.c_v) ** 2]])
        np.testing.assert_array_equal(got.matrix, want.matrix)


def test_path_state_inside_examples(baseline):
    got = path_state_inside(baseline, 0, 0.0)
    np.testing.assert_allclose(got.matrix, pure_density(baseline.pol).matrix, atol=1e-15)
    got = path_state_inside(baseline, 1, 60.0)
    assert abs(got.coherence) == pytest.approx(0.5 * 0.8643305520095889, rel=1e-12)


def test_inside_coherence_monotone_while_both_arms_active(baseline):
    ts = np.linspace(0.0, 50.0, 500)
    mods = [abs(joint_state_inside(baseline, t).coherence) for t in ts]
    assert np.all(np.diff(mods) <= 1e-15)
    # once one arm has closed, the joint coherence oscillates
    ts = np.linspace(50.0, 60.0, 500)
    mods = [abs(joint_state_inside(baseline, t).coherence) for t in ts]
    assert np.max(np.diff(mods)) > 0.01


# ---------------------------------------------------------------------------
# interference weights and cross-term transfer
# ---------------------------------------------------------------------------

def test_interference_kappas_identical_windows():
    kh, kv = interference_kappas(symmetric_config())
    assert kh == 2.0
    assert kv == 2.0


def test_interference_kappas_baseline_vanish(baseline):
    kh, kv = interference_kappas(baseline)
    assert abs(kh) < 1e-50
    assert abs(kv) < 1e-50


def test_interference_kappas_small_offset_frozen():
    cfg = preset("dtau0p5")
    kh, kv = interference_kappas(cfg)
    assert kh == pytest.approx(-1.3522706301012803, rel=1e-12)
    assert kv == pytest.approx(0.8947724319415228, rel=1e-12)


def test_lambda_collapses_for_symmetric_arms():
    cfg = symmetric_config(stop=40.0)
    # output delay still zero
    lam = _lambda_of_total_time(cfg, effective_time(cfg.window_out, 40.0))
    want = 2.0 * kappa_of_delay(DIST, 0.0, cfg.window0.delta_n * 40.0)
    assert lam == pytest.approx(want, abs=1e-10)


def test_lambda_baseline_dead_at_exit_and_revived_at_peak(baseline):
    def lam(t):
        return _lambda_of_total_time(baseline, effective_time(baseline.window_out, t))

    assert abs(lam(60.0)) < 1e-40
    t_peak = 60.0 + (1.544 * 60.0 - 1.553 * 50.0) / 0.009
    assert abs(lam(t_peak)) == pytest.approx(1.0, abs=1e-10)


def test_output_functions_invariants():
    rng = np.random.default_rng(32)
    for _ in range(15):
        cfg = random_config(rng)
        kh, kv = interference_kappas(cfg)
        assert abs(kh) <= 2.0 + 1e-12
        assert abs(kv) <= 2.0 + 1e-12
        ts = cfg.window_out.t_start + rng.uniform(0.0, 300.0, size=20)
        total = effective_time(cfg.window_out, ts)
        lam = _lambda_of_total_time(cfg, total)
        assert np.all(np.abs(lam) <= 2.0 + 1e-12)
        terms = cfg.outside_terms
        k0, k1 = _shifted_kappas(cfg, total, (terms.d_0, terms.d_1))
        for jp in (0, 1):
            lhs = 4.0 * coherence_transfer(cfg, jp, ts)
            rhs = k0 + k1 + (-1) ** jp * lam
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)


# ---------------------------------------------------------------------------
# the per-config table of outside terms
# ---------------------------------------------------------------------------

def expected_terms(cfg):
    """Every entry of cfg.outside_terms recomputed from the windows, the
    spectrum and the polarization."""
    w0, w1, out, pol = cfg.window0, cfg.window1, cfg.window_out, cfg.pol
    t0, t1 = w0.t_stop - w0.t_start, w1.t_stop - w1.t_start
    kh = 2.0 * kappa_of_delay(cfg.dist, 0.0, w0.n_h * t0 - w1.n_h * t1).real
    kv = 2.0 * kappa_of_delay(cfg.dist, 0.0, w0.n_v * t0 - w1.n_v * t1).real
    p0 = (2.0 + abs(pol.c_h) ** 2 * kh + abs(pol.c_v) ** 2 * kv) / 4.0
    return {
        "d_0": (w0.n_h - w0.n_v) * t0,
        "d_1": (w1.n_h - w1.n_v) * t1,
        "a_1": w0.n_h * t0 - w1.n_v * t1,
        "a_2": w1.n_h * t1 - w0.n_v * t0,
        "dn_out": out.n_h - out.n_v,
        "kappa_h": kh,
        "kappa_v": kv,
        "port_weights": (((2.0 + kh) / 4.0, (2.0 + kv) / 4.0),
                         ((2.0 - kh) / 4.0, (2.0 - kv) / 4.0)),
        "port_probabilities": (p0, 1.0 - p0),
    }


def _changed(cfg, field, rng):
    """cfg with one field replaced by a valid, different value."""
    if field == "dist":
        return replace(cfg, dist=core.FrequencyDistribution(cfg.dist.mu + 1.0))
    if field == "pol":
        return replace(cfg, pol=random_polarization(rng))
    window = getattr(cfg, field)
    return replace(cfg, **{field: replace(window, n_h=window.n_h + 0.001)})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["dist", "window0", "window1", "window_out", "pol"]))
def test_outside_terms_are_their_formulas_and_follow_every_field(seed, field):
    cfg = random_config(np.random.default_rng(seed))
    twin = random_config(np.random.default_rng(seed))
    key = hash(cfg)
    terms = cfg.outside_terms
    assert terms._asdict() == expected_terms(cfg)
    assert all(type(x) is float for x in (terms.kappa_h, terms.kappa_v, *terms.port_probabilities))
    # the table is neither compared nor hashed, and is computed once
    assert cfg == twin and hash(cfg) == hash(twin) == key
    assert cfg.outside_terms is terms
    for other in (copy.copy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert other == cfg and hash(other) == key
        assert other.outside_terms == terms
    changed = _changed(cfg, field, np.random.default_rng(seed + 1))
    assert changed != cfg
    assert changed.outside_terms._asdict() == expected_terms(changed)
    assert changed.outside_terms is not terms


def _counted_kernel(monkeypatch) -> list:
    """Record every kappa_of_delay call, wherever the package looks it up."""
    calls = []
    kernel = core.kappa_of_delay

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    for module in (core, channels, interferometer):
        monkeypatch.setattr(module, "kappa_of_delay", counting)
    return calls


def test_a_warm_config_evaluates_only_the_transfer_terms(monkeypatch, baseline):
    calls = _counted_kernel(monkeypatch)
    conditional_state_outside(baseline, 0, 500.0)
    # the table's two interference weights, once, and the four transfer terms
    assert len(calls) == 6
    for jp, t in ((0, 700.0), (1, 1665.0)):
        calls.clear()
        conditional_state_outside(baseline, jp, t)
        assert len(calls) == 4
    calls.clear()
    interference_kappas(baseline)
    path_probabilities(baseline)
    assert calls == []


# ---------------------------------------------------------------------------
# port probabilities
# ---------------------------------------------------------------------------

def test_interference_kappas_are_python_floats_from_the_kernel():
    rng = np.random.default_rng(36)
    for cfg in [preset(name) for name in PRESETS] + [random_config(rng) for _ in range(5)]:
        got = interference_kappas(cfg)
        t0, t1 = cfg.window0.duration, cfg.window1.duration
        for value, (n0, n1) in zip(got, ((cfg.window0.n_h, cfg.window1.n_h),
                                         (cfg.window0.n_v, cfg.window1.n_v))):
            d = n0 * t0 - n1 * t1
            assert type(value) is float
            assert value == 2.0 * kappa_of_delay(cfg.dist, 0.0, d).real


def test_path_probabilities_full_interference():
    p0, p1 = path_probabilities(symmetric_config())
    assert p0 == 1.0
    assert p1 == 0.0


def test_path_probabilities_baseline_balanced(baseline):
    p0, p1 = path_probabilities(baseline)
    assert p0 == pytest.approx(0.5, abs=1e-10)
    assert p1 == pytest.approx(0.5, abs=1e-10)


def test_path_probabilities_small_offset_frozen():
    p0, p1 = path_probabilities(preset("dtau0p5"))
    assert p0 == pytest.approx(0.4428127252300303, rel=1e-12)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-15)
    assert p0 == pytest.approx(0.443, abs=5e-4)


# ---------------------------------------------------------------------------
# conditional and averaged states outside
# ---------------------------------------------------------------------------

def test_dark_port_conditioning_raises():
    with pytest.raises(ImpossibleOutcome):
        conditional_state_outside(symmetric_config(), 1, 70.0)
    with pytest.raises(ImpossibleOutcome):
        coherence_factors(preset("dtau0"), "path1_out", np.linspace(60.0, 200.0, 10))
    cfg = preset("dtau0")
    with pytest.raises(
        ImpossibleOutcome,
        match=r"^output port 1 has probability 0\.0; cannot condition on it$",
    ):
        conditional_state_outside(cfg, 1, 80.0)
    # amplitudes given as numpy scalars leave the probability a Python float
    numpy_plus = replace(cfg, pol=PolarizationState(1 / np.sqrt(2), 1 / np.sqrt(2)))
    assert all(type(p) is float for p in numpy_plus.outside_terms.port_probabilities)
    with pytest.raises(
        ImpossibleOutcome,
        match=r"^output port 1 has probability 0\.0; cannot condition on it$",
    ):
        conditional_state_outside(numpy_plus, 1, 80.0)
    # the unnormalized state of the dark port still constructs, with trace 0
    dark = conditional_state_outside(cfg, 1, 80.0, normalized=False)
    assert isinstance(dark, DensityMatrix)
    assert dark.trace == 0.0 and not dark.unit_trace
    assert dark.coherence == 0.0


def test_a_bright_port_without_h_v_coherence_has_exactly_zero_coherence():
    # equal-H port 1 takes no H light: its transfer f would be roundoff
    cfg = build_config(EQUAL_H)[0]
    times = np.arange(10.0, 3000.0, 1.0)
    assert np.all(coherence_factors(cfg, "path1_out", times) == 0.0)
    assert abs(coherence_factors(cfg, "path0_out", times[:1])[0]) > 0.5
    for normalized in (True, False):
        assert conditional_state_outside(cfg, 1, 11.0, normalized).coherence == 0.0


# ---------------------------------------------------------------------------
# vectorised coherence factors of the |+> / |-> pair
# ---------------------------------------------------------------------------

_RNG = np.random.default_rng(2024)
AGREEMENT_CONFIGS = {name: preset(name) for name in PRESETS} | {
    f"random{k}": random_config(_RNG) for k in range(6)
}


@pytest.mark.parametrize("cfg", AGREEMENT_CONFIGS.values(), ids=AGREEMENT_CONFIGS.keys())
def test_coherence_factors_match_state_based_series(cfg):
    # both sides read one closed-form table (_closed_form): this checks the
    # scalar DensityMatrix / trace_distance kernels, one pair of states per
    # point, against the array ones (check_density_matrices, |coherence|);
    # the independent reference is the oracle (test_oracle)
    start = cfg.window_out.t_start
    grids = {
        "inside": np.linspace(0.0, start, 151),
        "outside": np.linspace(start - 1.0, start + 3000.0, 151),
    }
    for location in LOCATIONS:
        grid = grids["outside" if location.endswith("_out") else "inside"]
        try:
            want = trace_distance_series(cfg, location, grid).values
        except ImpossibleOutcome:
            with pytest.raises(ImpossibleOutcome):
                coherence_factors(cfg, location, grid)
            continue
        got = np.abs(coherence_factors(cfg, location, grid))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=location)


def test_coherence_factors_reject_unknown_location(baseline):
    for evaluate in (coherence_factors, trace_distance_series):
        with pytest.raises(ValueError, match="unknown location"):
            evaluate(baseline, "nowhere", [60.0])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_time_not_finite_is_refused_by_name(t):
    # the dtau10 output coupling runs freely, so at t = inf the scalar kernel
    # gave a state without coherence, and the array kernel RuntimeWarnings
    cfg = preset("dtau10")
    start = cfg.window_out.t_start
    calls = {
        "conditional_state_outside": lambda: conditional_state_outside(cfg, 0, t),
        "unnormalized": lambda: conditional_state_outside(cfg, 1, t, normalized=False),
        "averaged_state_outside": lambda: averaged_state_outside(cfg, t),
        "path_state_inside": lambda: path_state_inside(cfg, 1, t),
        "joint_state_inside": lambda: joint_state_inside(cfg, t),
        "coherence_transfer": lambda: coherence_transfer(cfg, 0, t),
        "coherence_transfer array": lambda: coherence_transfer(cfg, 1, np.array([start, t])),
        "kraus_conditional": lambda: maps.kraus_conditional(cfg, 0, t),
        "propagator t1": lambda: maps.propagator(cfg, 0, t, t),
        "propagator t2": lambda: maps.propagator(cfg, 0, start, t),
    }
    for location in LOCATIONS:
        times = [start if location.endswith("_out") else start / 2.0, t]
        calls[f"coherence_factors {location}"] = (
            lambda location=location, times=times: coherence_factors(cfg, location, times))
        calls[f"trace_distance_series {location}"] = (
            lambda location=location, times=times: trace_distance_series(cfg, location, times))
    for name, call in calls.items():
        with pytest.raises(ValueError, match=re.escape(repr(t))):
            call()


def test_pair_state_check_rejects_what_density_matrix_rejects():
    # populations (a, b) and off-diagonal modulus r, on either side of the
    # PSD and unit-trace tolerances by a factor of two
    eps = 2e-12
    cases = [
        (0.5, 0.5, 0.5),
        (0.5, 0.5, 0.5 + eps),
        (0.5, 0.5, 0.5 + eps / 4),
        (0.9, 0.1, 0.3),
        (0.9, 0.1, 0.3 + eps),
        (0.5 + 5e-13, 0.5, 0.1),
        (0.5 + 1e-10, 0.5, 0.1),
        (0.5 - 1e-10, 0.5, 0.1),
        (0.5 - 1e-9, 0.5 - 1e-9, 0.1),
    ]
    for a, b, r in cases:
        try:
            DensityMatrix([[a, r], [r, b]])
            accepted = True
        except (ValueError, np.linalg.LinAlgError):
            accepted = False
        # the pair states coherence_factors checks, with these populations
        states = _states(a, b, np.array([0.0, r]))
        if accepted:
            check_density_matrices(states)
        else:
            with pytest.raises(ValueError):
                check_density_matrices(states)
    with pytest.raises(ValueError):
        check_density_matrices(_states(0.5, 0.5, np.array([0.0, np.nan])))


def test_dissipative_like_population_at_exit():
    # the interference weights push the H population well below 1/2
    got = conditional_state_outside(preset("dtau0p5"), 0, 60.0)
    assert got.population_h == pytest.approx(0.1828451772592579, rel=1e-12)
    assert got.population_h == pytest.approx(0.183, abs=5e-3)


def test_conditional_populations_time_independent(baseline):
    times = np.linspace(60.0, 2500.0, 40)
    for jp in (0, 1):
        pops = [conditional_state_outside(baseline, jp, t).population_h for t in times]
        assert np.ptp(pops) == 0.0


def test_identical_arms_conditional_is_concatenated_single_path():
    cfg = symmetric_config(stop=50.0)
    rng = np.random.default_rng(33)
    for t in rng.uniform(50.0, 600.0, size=20):
        got = conditional_state_outside(cfg, 0, t)
        delay = cfg.window0.delta_n * 50.0 + cfg.window_out.delta_n * effective_time(
            cfg.window_out, t
        )
        want_coh = 0.5 * kappa_of_delay(cfg.dist, 0.0, delay)
        assert got.coherence == pytest.approx(want_coh, abs=1e-10)
        assert got.population_h == pytest.approx(0.5, abs=1e-13)


def test_averaged_outside_continuous_at_exit(baseline):
    inside = joint_state_inside(baseline, 60.0)
    outside = averaged_state_outside(baseline, 60.0)
    np.testing.assert_allclose(inside.matrix, outside.matrix, atol=1e-15)


def test_quantum_erasure_decomposition():
    rng = np.random.default_rng(34)
    for _ in range(25):
        cfg = random_config(rng)
        t = cfg.window_out.t_start + rng.uniform(0.0, 400.0)
        avg = averaged_state_outside(cfg, t).matrix
        total = np.zeros((2, 2), dtype=complex)
        probs = path_probabilities(cfg)
        for jp in (0, 1):
            if probs[jp] < 1e-14:
                continue
            total += probs[jp] * conditional_state_outside(cfg, jp, t).matrix
        np.testing.assert_allclose(total, avg, atol=1e-12)


def test_unnormalized_decomposition_identity(baseline):
    rng = np.random.default_rng(35)
    for t in rng.uniform(60.0, 2000.0, size=50):
        avg = averaged_state_outside(baseline, t).matrix
        total = sum(
            conditional_state_outside(baseline, jp, t, normalized=False).matrix
            for jp in (0, 1)
        )
        np.testing.assert_allclose(total, avg, atol=1e-12)


def test_unnormalized_conditional_trace_is_port_probability(baseline):
    for jp in (0, 1):
        rho = conditional_state_outside(baseline, jp, 100.0, normalized=False)
        assert rho.trace == pytest.approx(path_probabilities(baseline)[jp], abs=1e-12)


def test_averaged_outside_late_time_decay(baseline):
    ts = np.linspace(60.0, 4000.0, 2000)
    mods = [abs(averaged_state_outside(baseline, t).coherence) for t in ts]
    assert np.all(np.diff(mods) <= 1e-15)
    assert mods[-1] < 1e-12
