import numpy as np
import pytest
from conftest import preset, random_config
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdephase.core import (
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
    pure_density,
)
from mzdephase.errors import ZeroCoherenceFactor
from mzdephase.interferometer import OutputFunctions, conditional_state_outside
from mzdephase.maps import (
    QuantumOperation,
    TraceCharacter,
    conditional_operation,
    divisibility_scan,
    is_completely_positive,
    kraus_conditional,
    propagator,
    propagator_from_coherence_factors,
    trace_character,
)

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


# ---------------------------------------------------------------------------
# QuantumOperation plumbing
# ---------------------------------------------------------------------------

def test_identity_operation():
    op = QuantumOperation.from_kraus([np.eye(2)])
    rho = pure_density(PolarizationState.plus()).matrix
    np.testing.assert_array_equal(op.apply(rho), rho)
    assert is_completely_positive(op)
    assert trace_character(op) is TraceCharacter.TRACE_PRESERVING


def test_transposition_via_choi_is_not_cp():
    op = QuantumOperation.from_choi(SWAP)
    assert not is_completely_positive(op)
    # transposition is still trace preserving
    assert trace_character(op) is TraceCharacter.TRACE_PRESERVING


_ENTRY = st.floats(-2.0, 2.0)
_OPERATOR = st.lists(st.builds(complex, _ENTRY, _ENTRY), min_size=4, max_size=4).map(
    lambda entries: np.array(entries).reshape(2, 2)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), _OPERATOR), min_size=1, max_size=3))
def test_choi_matches_the_kron_formula(terms):
    weights, operators = zip(*terms)
    omega = np.array([1.0, 0.0, 0.0, 1.0])
    want = np.zeros((4, 4), dtype=complex)
    for w, op in terms:
        vec = np.kron(op, np.eye(2)) @ omega
        want += w * np.outer(vec, vec.conj())
    got = QuantumOperation.from_weighted_kraus(weights, operators).choi
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_choi_application_matches_kraus_application():
    rng = np.random.default_rng(41)
    for _ in range(10):
        k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        op = QuantumOperation.from_kraus([k / 2.0])
        as_choi = QuantumOperation.from_choi(op.choi)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        np.testing.assert_allclose(as_choi.apply(rho), op.apply(rho), atol=1e-13)


# ---------------------------------------------------------------------------
# conditional operation
# ---------------------------------------------------------------------------

def test_forced_equal_weights_are_strictly_trace_decreasing():
    op = conditional_operation(0.5, 0.5, 0.25 + 0.1j)
    total = sum(k.conj().T @ k for k in op.kraus)
    np.testing.assert_allclose(total, 0.5 * np.eye(2), atol=1e-14)
    assert trace_character(op) is TraceCharacter.TRACE_NON_INCREASING


def test_unit_weights_give_trace_preserving_map():
    op = conditional_operation(1.0, 1.0, 0.3 * np.exp(0.7j))
    total = sum(k.conj().T @ k for k in op.kraus)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-14)
    assert trace_character(op) is TraceCharacter.TRACE_PRESERVING
    assert is_completely_positive(op)


def test_completeness_deficiency_is_population_weights(baseline):
    of = OutputFunctions.from_config(baseline)
    op = kraus_conditional(baseline, 0, 500.0)
    want = np.eye(2) - np.diag([of.h(0), of.v(0)])
    np.testing.assert_allclose(op.completeness_deficiency, want, atol=1e-14)


def test_scaled_kraus_list_is_invalid():
    op = conditional_operation(1.0, 1.0, 0.3)
    scaled = QuantumOperation.from_kraus([1.1 * k for k in op.kraus])
    assert trace_character(scaled) is TraceCharacter.INVALID


def test_reconstruction_identity_baseline(baseline):
    rng = np.random.default_rng(42)
    rho0 = pure_density(baseline.pol).matrix
    for t in rng.uniform(60.0, 2500.0, size=20):
        op = kraus_conditional(baseline, 0, t)
        want = conditional_state_outside(baseline, 0, t, normalized=False).matrix
        np.testing.assert_allclose(op.apply(rho0), want, atol=1e-12)


def test_reconstruction_identity_random_configs_any_phase():
    rng = np.random.default_rng(43)
    done = 0
    while done < 20:
        cfg = random_config(rng)
        t = cfg.window_out.t_start + rng.uniform(0.0, 300.0)
        of = OutputFunctions.from_config(cfg)
        jp = int(rng.integers(0, 2))
        if abs(of.f(jp, t)) < 1e-12:
            continue
        op = kraus_conditional(cfg, jp, t)
        want = conditional_state_outside(cfg, jp, t, normalized=False).matrix
        np.testing.assert_allclose(op.apply(pure_density(cfg.pol).matrix), want, atol=1e-12)
        done += 1


def test_zero_coherence_factor_raises():
    cfg = preset("dtau0")  # equal arms: port 1 is dark and f1 vanishes
    with pytest.raises(ZeroCoherenceFactor):
        kraus_conditional(cfg, 1, 80.0)


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------

def test_propagator_at_equal_times_is_identity(baseline):
    op = propagator(baseline, 0, 100.0, 100.0)
    assert len(op.operators) == 1
    np.testing.assert_allclose(op.operators[0], np.eye(2), atol=1e-14)
    rho = pure_density(baseline.pol).matrix
    np.testing.assert_allclose(op.apply(rho), rho, atol=1e-14)


def test_propagator_rejects_reversed_times(baseline):
    with pytest.raises(ValueError):
        propagator(baseline, 0, 200.0, 100.0)


def test_propagator_cptp_while_coherence_decays(baseline):
    # |f| decays after the exit and again after the revival peak
    for t1, t2 in ((60.0, 80.0), (100.0, 300.0), (1900.0, 2100.0)):
        op = propagator(baseline, 0, t1, t2)
        assert is_completely_positive(op)
        assert trace_character(op) is TraceCharacter.TRACE_PRESERVING


def test_propagator_non_cp_inside_backflow_interval(baseline):
    # the recoherence revival makes |f| grow over lab times (1076, 1726)
    op = propagator(baseline, 0, 1300.0, 1600.0)
    assert not is_completely_positive(op)
    assert np.linalg.eigvalsh(op.choi)[0] < -1e-8
    assert op.kraus is None


def test_forced_growth_ratio_is_not_cp():
    op = propagator_from_coherence_factors(0.5 + 0.0j, 0.6 + 0.0j)
    assert not is_completely_positive(op)


def test_composition_law(baseline):
    # Only meaningful where |f(t1)| is resolvable at double precision: below
    # ~1e-4 the cancellation noise of the closed forms dominates f and the
    # ratio f(t2)/f(t1) amplifies it past any fixed tolerance.
    rng = np.random.default_rng(44)
    rho0 = pure_density(baseline.pol).matrix
    of = OutputFunctions.from_config(baseline)
    checked = 0
    while checked < 25:
        t1, t2 = np.sort(rng.uniform(60.0, 2500.0, size=2))
        if abs(of.f(0, t1)) < 1e-4:
            continue
        lhs = propagator(baseline, 0, t1, t2).apply(
            kraus_conditional(baseline, 0, t1).apply(rho0)
        )
        rhs = kraus_conditional(baseline, 0, t2).apply(rho0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        checked += 1


def test_propagator_ignores_interference_weights(baseline):
    # the propagator is a function of the coherence transfer factors alone
    of = OutputFunctions.from_config(baseline)
    t1, t2 = 200.0, 900.0
    via_config = propagator(baseline, 0, t1, t2)
    via_factors = propagator_from_coherence_factors(
        complex(of.f(0, t1)), complex(of.f(0, t2))
    )
    assert np.array_equal(via_config.choi, via_factors.choi)
    for a, b in zip(via_config.operators, via_factors.operators):
        assert np.array_equal(a, b)
    assert via_config.weights == via_factors.weights


def test_equivalence_of_coherence_growth_and_trace_distance_growth():
    from mzdephase.analysis import trace_distance_series

    for name in ("dtau10", "dtau1p5"):
        cfg = preset(name)
        grid = np.linspace(60.0, 2200.0, 800)
        of = OutputFunctions.from_config(cfg)
        for jp, location in ((0, "path0_out"), (1, "path1_out")):
            fmod = np.abs(of.f(jp, grid))
            series = trace_distance_series(cfg, location, grid)
            df = np.diff(fmod)
            dd = np.diff(series.values)
            mask = np.abs(df) > 1e-12
            assert np.array_equal(np.sign(df[mask]), np.sign(dd[mask]))


# ---------------------------------------------------------------------------
# divisibility scan
# ---------------------------------------------------------------------------

def test_divisibility_scan_identical_arms_empty():
    w = InteractionWindow(1.553, 1.544, 0.0, 50.0)
    out = InteractionWindow(1.553, 1.544, 50.0, np.inf)
    cfg = InterferometerConfig(
        FrequencyDistribution(400.0), w, w, out, PolarizationState.plus()
    )
    grid = np.linspace(50.0, 1500.0, 2000)
    assert divisibility_scan(cfg, 0, grid) == []


def test_divisibility_scan_baseline_single_interval(baseline):
    grid = 60.0 + np.arange(0.0, 2941.0, 1.0)
    intervals = divisibility_scan(baseline, 0, grid)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    peak_lab_time = 60.0 + (1.544 * 60.0 - 1.553 * 50.0) / 0.009
    assert lo < peak_lab_time < hi + 1.0


def test_divisibility_scan_full_interference_empty():
    cfg = preset("dtau0")
    grid = np.linspace(60.0, 1500.0, 2000)
    assert divisibility_scan(cfg, 0, grid) == []
    assert divisibility_scan(cfg, 1, grid) == []


def test_divisibility_scan_rejects_bad_grid(baseline):
    with pytest.raises(ValueError):
        divisibility_scan(baseline, 0, [100.0, 90.0])
