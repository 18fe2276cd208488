import re
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import EQUAL_H, preset, random_config
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdephase import maps
from mzdephase.cli import build_config, parse_grid
from mzdephase.core import (
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
    pure_density,
)
from mzdephase.errors import ZeroCoherenceFactor
from mzdephase.interferometer import (
    coherence_transfer,
    conditional_state_outside,
    interference_kappas,
    path_probabilities,
    path_state_inside,
)
from mzdephase.maps import (
    CP_TOL,
    QuantumOperation,
    TraceCharacter,
    divisibility_scan,
    is_completely_positive,
    kraus_conditional,
    propagator,
    trace_character,
)

# ---------------------------------------------------------------------------
# QuantumOperation: three numbers and their views
# ---------------------------------------------------------------------------

def test_identity_operation():
    op = QuantumOperation(1.0, 1.0, 1.0)
    rho = pure_density(PolarizationState.plus()).matrix
    np.testing.assert_array_equal(op.apply(rho), rho)
    assert is_completely_positive(op)
    assert trace_character(op) is TraceCharacter.TRACE_PRESERVING


def test_coherence_growth_is_not_cp_but_trace_preserving():
    op = QuantumOperation(1.0, 1.0, 1.5j)
    assert not is_completely_positive(op)
    assert op.kraus is None
    assert trace_character(op) is TraceCharacter.TRACE_PRESERVING


@pytest.mark.parametrize("rho, shape", [
    ([1.0, 0.0], "(2,)"), (2.0, "()"), (np.eye(3), "(3, 3)"), (np.zeros((1, 2, 2)), "(1, 2, 2)"),
])
def test_apply_refuses_anything_but_a_2x2_matrix(rho, shape):
    op = QuantumOperation(0.5, 0.5, 0.3)
    with pytest.raises(ValueError, match=rf"^rho must be 2x2, got shape {re.escape(shape)}$"):
        op.apply(rho)


_RHO = np.array([[0.6, 0.3 - 0.2j], [0.3 + 0.2j, 0.4]])


def _kraus_sum(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


# |g|^2 / (h v) - 1 on both sides of the CP boundary, within and beyond CP_TOL
_EXCESS = st.floats(-1e-9, 1e-9)
# a weight anywhere in (0, 1.5), or within about CP_TOL of 1
_ANY_WEIGHT = st.one_of(st.floats(1e-3, 1.5), st.floats(1.0 - 3e-10, 1.0 + 3e-10))


@settings(max_examples=500, deadline=None)
@given(_ANY_WEIGHT, _ANY_WEIGHT, st.one_of(_EXCESS, st.floats(-1.0, 1.0)),
       st.floats(-np.pi, np.pi))
def test_choi_matches_the_kron_formula(h, v, excess, phi):
    # choi, kraus, apply and trace_character are views of (h, v, g): the
    # Choi matrix is sum_K vec(K) vec(K)^dag of its own Kraus operators,
    # with vec(K) = (K (x) 1)|Omega>, wherever the map is CP
    g = np.sqrt(h * v * (1.0 + excess)) * np.exp(1j * phi)
    op = QuantumOperation(h, v, g)
    # the Choi contraction sum_ij <a|E(|i><j|)|b> rho_ij, either side of CP
    want = np.einsum("aibj,ij->ab", op.choi.reshape(2, 2, 2, 2), _RHO)
    np.testing.assert_allclose(op.apply(_RHO), want, rtol=0, atol=1e-15)
    kraus = op.kraus
    assert (kraus is None) == (not is_completely_positive(op))
    if kraus is not None:
        omega = np.array([1.0, 0.0, 0.0, 1.0])
        kron = np.zeros((4, 4), dtype=complex)
        for k in kraus:
            vec = np.kron(k, np.eye(2)) @ omega
            kron += np.outer(vec, vec.conj())
        np.testing.assert_allclose(op.choi, kron, rtol=0, atol=2 * CP_TOL)
        np.testing.assert_allclose(op.apply(_RHO), _kraus_sum(kraus, _RHO), rtol=0,
                                   atol=2 * CP_TOL)
    low, high = np.linalg.eigvalsh(np.diag([1.0 - h, 1.0 - v]))
    if max(abs(low), abs(high)) <= CP_TOL:
        want = TraceCharacter.TRACE_PRESERVING
    elif low >= -CP_TOL:
        want = TraceCharacter.TRACE_NON_INCREASING
    else:
        want = TraceCharacter.INVALID
    assert trace_character(op) is want


@pytest.mark.parametrize("name, bad", [
    (name, bad)
    for name in ("h", "v", "g")
    for bad in [np.inf, -np.inf, np.nan] + ([complex(np.nan, 1.0), complex(0.2, np.inf)]
                                            if name == "g" else [])
])
def test_a_field_not_finite_is_refused_by_name(name, bad):
    fields = {"h": 0.5, "v": 0.5, "g": 0.1j} | {name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        QuantumOperation(**fields)


# ---------------------------------------------------------------------------
# conditional operation
# ---------------------------------------------------------------------------

def test_forced_equal_weights_are_strictly_trace_decreasing():
    op = QuantumOperation(0.5, 0.5, 0.25 + 0.1j)
    total = sum(k.conj().T @ k for k in op.kraus)
    np.testing.assert_allclose(total, 0.5 * np.eye(2), atol=1e-14)
    assert trace_character(op) is TraceCharacter.TRACE_NON_INCREASING


def test_unit_weights_give_trace_preserving_map():
    op = QuantumOperation(1.0, 1.0, 0.3 * np.exp(0.7j))
    total = sum(k.conj().T @ k for k in op.kraus)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-14)
    assert trace_character(op) is TraceCharacter.TRACE_PRESERVING
    assert is_completely_positive(op)


def test_completeness_deficiency_is_population_weights(baseline):
    kh, kv = interference_kappas(baseline)
    op = kraus_conditional(baseline, 0, 500.0)
    want = np.eye(2) - np.diag([(2.0 + kh) / 4.0, (2.0 + kv) / 4.0])
    got = np.eye(2) - sum(k.conj().T @ k for k in op.kraus)
    np.testing.assert_allclose(got, want, atol=1e-14)
    assert (op.h, op.v) == ((2.0 + kh) / 4.0, (2.0 + kv) / 4.0)


def test_scaled_kraus_list_is_invalid():
    op = QuantumOperation(1.0, 1.0, 0.3)
    # the map of the Kraus operators 1.1 K: every number scaled by 1.21
    scaled = QuantumOperation(1.21 * op.h, 1.21 * op.v, 1.21 * op.g)
    np.testing.assert_allclose(_kraus_sum(scaled.kraus, _RHO),
                               _kraus_sum([1.1 * k for k in op.kraus], _RHO), atol=1e-14)
    assert trace_character(scaled) is TraceCharacter.INVALID


def test_reconstruction_identity_baseline(baseline):
    # the Kraus map reproduces p_0 times the port-0 state
    rng = np.random.default_rng(42)
    rho0 = pure_density(baseline.pol).matrix
    p0 = path_probabilities(baseline)[0]
    for t in rng.uniform(60.0, 2500.0, size=20):
        op = kraus_conditional(baseline, 0, t)
        want = p0 * conditional_state_outside(baseline, 0, t).matrix
        np.testing.assert_allclose(op.apply(rho0), want, atol=1e-12)


def test_reconstruction_identity_random_configs_any_phase():
    rng = np.random.default_rng(43)
    done = 0
    while done < 20:
        cfg = random_config(rng)
        t = cfg.window_out.t_start + rng.uniform(0.0, 300.0)
        jp = int(rng.integers(0, 2))
        if abs(coherence_transfer(cfg, jp, t)) < 1e-12:
            continue
        op = kraus_conditional(cfg, jp, t)
        want = path_probabilities(cfg)[jp] * conditional_state_outside(cfg, jp, t).matrix
        np.testing.assert_allclose(op.apply(pure_density(cfg.pol).matrix), want, atol=1e-12)
        done += 1


def test_zero_coherence_factor_raises():
    cfg = preset("dtau0")  # equal arms: port 1 is dark and f1 vanishes
    with pytest.raises(ZeroCoherenceFactor):
        kraus_conditional(cfg, 1, 80.0)
    # |f| decays below the gate long after the recoherence peak
    with pytest.raises(ZeroCoherenceFactor, match=r"^port 0, t1=100000.0: \|f1\|=0.0"):
        propagator(preset("dtau10"), 0, 1e5, 2e5)


@pytest.mark.parametrize("name, spec", [("dtau0", "60:3000:1"), ("equal-H", "10:3000:1")])
def test_every_map_refuses_a_port_without_coherence(name, spec):
    # dtau0 port 1 is dark, equal-H port 1 bright without H light; either
    # way f is roundoff, which no unit step may turn into a propagator
    cfg = build_config(EQUAL_H)[0] if name == "equal-H" else preset(name)
    grid = parse_grid(spec)
    for t in grid:
        with pytest.raises(ZeroCoherenceFactor, match=r"^port 1 has no H-V coherence"):
            propagator(cfg, 1, t, t + 1.0)
    with pytest.raises(ZeroCoherenceFactor, match=r"^port 1 has no H-V coherence"):
        kraus_conditional(cfg, 1, grid[0])
    assert divisibility_scan(cfg, 1, grid) == []


def _propagator_of(f1, f2):
    """maps.propagator from t1 = 0 to t2 = 1 on a port 0 whose coherence
    transfer is f1 at t1 and f2 at t2."""
    with mock.patch.object(maps, "_port_terms", side_effect=[(f1, 1.0, 1.0), (f2, 1.0, 1.0)]):
        return propagator(None, 0, 0.0, 1.0)


@pytest.mark.parametrize("f1, modulus", [(0.0, "0.0"), (1e-300, "1e-300"), (1e-300j, "1e-300")],
                         ids=["0.0", "1e-300", "1e-300j"])
def test_propagator_from_a_vanishing_factor_raises(f1, modulus):
    want = rf"^port 0, t1=0\.0: \|f1\|={modulus}: propagator undefined$"
    with pytest.raises(ZeroCoherenceFactor, match=want):
        _propagator_of(f1, 0.5)


def test_conditional_operation_at_zero_coherence_is_full_dephasing():
    op = QuantumOperation(0.5, 0.5, 0.0)
    assert op.kraus is not None
    assert is_completely_positive(op)
    rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    got = sum(k @ rho @ k.conj().T for k in op.kraus)
    np.testing.assert_allclose(got, [[0.25, 0.0], [0.0, 0.25]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(op.apply(rho), got, rtol=0, atol=1e-15)


def test_zero_birefringence_ports_have_finite_cp_kraus_forms():
    # n_h == n_v everywhere makes |f| equal sqrt(h v) on both ports, so the
    # Choi matrix has rank one: its second eigenvalue is rounding, of either sign
    rng = np.random.default_rng(0)
    for _ in range(200):
        base = random_config(rng)
        flat = [InteractionWindow(w.n_v, w.n_v, w.t_start, w.t_stop)
                for w in (base.window0, base.window1, base.window_out)]
        cfg = InterferometerConfig(base.dist, *flat, base.pol)
        t = cfg.window_out.t_start + 5.0
        rho0 = pure_density(cfg.pol).matrix
        for jp in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                op = kraus_conditional(cfg, jp, t)
            assert op.kraus is not None
            assert np.all(np.isfinite(op.kraus))
            assert is_completely_positive(op)
            want = path_probabilities(cfg)[jp] * conditional_state_outside(cfg, jp, t).matrix
            np.testing.assert_allclose(op.apply(rho0), want, rtol=0, atol=1e-12)


def test_coherence_beyond_the_weights_gives_a_finite_non_cp_map():
    op = QuantumOperation(0.5, 0.5, 0.6)
    assert np.all(np.isfinite(op.choi))
    assert op.kraus is None
    assert not is_completely_positive(op)


_WEIGHT = st.floats(1e-3, 1.0)
_COHERENCE = st.builds(
    lambda r, phi: r * np.exp(1j * phi), st.floats(1e-3, 1.5), st.floats(-np.pi, np.pi)
)


def _assert_diagonal_choi_spectrum(op, h, v, g):
    radius = np.hypot((h - v) / 2.0, abs(g))
    want = np.sort([0.0, 0.0, (h + v) / 2.0 - radius, (h + v) / 2.0 + radius])
    np.testing.assert_allclose(np.linalg.eigvalsh(op.choi), want, rtol=0, atol=1e-12)
    if abs(abs(g) ** 2 - h * v) > 1e-9:
        assert is_completely_positive(op) == (abs(g) ** 2 <= h * v)


@settings(max_examples=300, deadline=None)
@given(_WEIGHT, _WEIGHT, _COHERENCE)
def test_conditional_operation_choi_spectrum(h, v, f):
    _assert_diagonal_choi_spectrum(QuantumOperation(h, v, f), h, v, f)


@settings(max_examples=300, deadline=None)
@given(_COHERENCE, _COHERENCE)
def test_propagator_choi_spectrum(f1, f2):
    op = _propagator_of(f1, f2)
    _assert_diagonal_choi_spectrum(op, 1.0, 1.0, f2 / f1)


def _eigvalsh_verdict(op):
    """is_completely_positive as LAPACK reads it: eigvalsh's smallest
    eigenvalue of the Choi matrix, and that eigenvalue."""
    lowest = np.linalg.eigvalsh(op.choi)[0]
    return bool(lowest >= -CP_TOL), lowest


@st.composite
def diagonal_maps(draw):
    """A diagonal map, its weights possibly negative and |g|^2 / (h v) - 1
    within or far from CP_TOL."""
    h, v = draw(st.floats(-0.1, 1.0)), draw(st.floats(-0.1, 1.0))
    excess = draw(st.one_of(_EXCESS, st.floats(-1.0, 1.0)))
    gabs = np.sqrt(abs(h * v) * (1.0 + excess))
    phase = np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    return QuantumOperation(h, v, complex(gabs * phase))


@settings(max_examples=500, deadline=None)
@given(diagonal_maps())
def test_cp_verdict_agrees_with_eigvalsh(op):
    want, lowest = _eigvalsh_verdict(op)
    # within a few roundings of -CP_TOL the closed form and LAPACK may fall
    # on opposite sides of it
    band = 8.0 * np.finfo(float).eps * max(np.max(np.abs(op.choi)), 1.0)
    if abs(lowest + CP_TOL) > band:
        assert is_completely_positive(op) is want


@pytest.mark.parametrize("h, v, g, cp", [
    (1.5e308, 1.5e308, 1.7e308, False),
    (1.7e308, 1e307, 1.6e308, False),
    (1.5e308, 1.5e308, 1.4e308, True),
    (1e308, 1.7e308, 1.3e308, True),
])
def test_cp_verdict_near_overflow_agrees_with_eigvalsh(h, v, g, cp):
    # (h + v) / 2 overflows here; the halves of h and v do not
    op = QuantumOperation(h, v, g)
    assert is_completely_positive(op) is _eigvalsh_verdict(op)[0] is cp


def test_every_verdict_is_made_without_eigvalsh(baseline):
    ops = [
        QuantumOperation(0.5, 0.3, 0.2 + 0.1j),
        QuantumOperation(0.5, 0.3, 0.6),
        kraus_conditional(baseline, 0, 500.0),
        _propagator_of(0.5, 0.4j),
        _propagator_of(0.5, 0.6j),
        propagator(baseline, 0, 1300.0, 1600.0),
    ]
    want = [(_eigvalsh_verdict(op)[0], op.kraus is not None) for op in ops]
    characters = [trace_character(op) for op in ops]
    with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh called")):
        got = [(is_completely_positive(op), op.kraus is not None) for op in ops]
        assert [trace_character(op) for op in ops] == characters
    assert got == want == [(v, v) for v in (True, False, True, True, False, False)]
    assert characters == [TraceCharacter.TRACE_NON_INCREASING] * 3 + [
        TraceCharacter.TRACE_PRESERVING] * 3


def _assert_kraus_exactly_where_cp(op):
    kraus = op.kraus
    assert (kraus is None) == (not is_completely_positive(op))
    if kraus is not None:
        assert np.all(np.isfinite(kraus))
        np.testing.assert_allclose(_kraus_sum(kraus, _RHO), op.apply(_RHO), rtol=0, atol=CP_TOL)


@settings(max_examples=300, deadline=None)
@given(_WEIGHT, _WEIGHT, _EXCESS, st.floats(-np.pi, np.pi))
def test_conditional_operation_has_a_kraus_form_exactly_where_cp(h, v, excess, phi):
    gabs = np.sqrt(h * v * (1.0 + excess))
    _assert_kraus_exactly_where_cp(QuantumOperation(h, v, gabs * np.exp(1j * phi)))


@settings(max_examples=300, deadline=None)
@given(_COHERENCE, _EXCESS, st.floats(-np.pi, np.pi))
def test_propagator_has_a_kraus_form_exactly_where_cp(f1, excess, phi):
    f2 = f1 * np.sqrt(1.0 + excess) * np.exp(1j * phi)
    _assert_kraus_exactly_where_cp(_propagator_of(f1, f2))


def test_a_step_within_cp_tol_of_the_boundary_has_a_kraus_form(baseline):
    # |f| grows by about 6e-13 over this step: the Choi matrix has a
    # negative eigenvalue within CP_TOL, so the map counts as CP
    op = propagator(baseline, 0, 1725.554, 1725.55401)
    assert -CP_TOL < np.linalg.eigvalsh(op.choi)[0] < 0
    assert is_completely_positive(op)
    _assert_kraus_exactly_where_cp(op)


# ---------------------------------------------------------------------------
# path and port indices
# ---------------------------------------------------------------------------

# every public function that takes a path or port index
_INDEXED_CALLS = pytest.mark.parametrize("call", [
    lambda cfg, j: path_state_inside(cfg, j, 30.0),
    lambda cfg, j: conditional_state_outside(cfg, j, 500.0),
    lambda cfg, j: coherence_transfer(cfg, j, 500.0),
    lambda cfg, j: kraus_conditional(cfg, j, 500.0),
    lambda cfg, j: propagator(cfg, j, 100.0, 300.0),
    lambda cfg, j: divisibility_scan(cfg, j, [100.0, 200.0, 300.0]),
], ids=["path_state_inside", "conditional_state_outside", "coherence_transfer",
        "kraus_conditional", "propagator", "divisibility_scan"])


@pytest.mark.parametrize("index", [2, -1, None, 1.0, np.float64(1.0), True, "1"],
                         ids=["2", "-1", "None", "1.0", "np.float64(1.0)", "True", "'1'"])
@_INDEXED_CALLS
def test_index_other_than_0_or_1_is_rejected(baseline, call, index):
    # only the integers 0 and 1 name a path or port: None is not the average,
    # and neither a float nor a bool is an index
    with pytest.raises(ValueError, match=re.escape(f"index {index!r} is neither 0 nor 1")):
        call(baseline, index)


@_INDEXED_CALLS
def test_a_numpy_integer_index_is_the_python_one(baseline, call):
    # repr writes every number of a state, map or interval list exactly
    for j in (0, 1):
        assert repr(call(baseline, np.int64(j))) == repr(call(baseline, j))


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------

def test_propagator_at_equal_times_is_identity(baseline):
    op = propagator(baseline, 0, 100.0, 100.0)
    rho = pure_density(baseline.pol).matrix
    np.testing.assert_allclose(op.apply(rho), rho, atol=1e-14)
    # one Kraus operator, the identity up to a global phase: compare the map
    assert len(op.kraus) == 1
    np.testing.assert_allclose(_kraus_sum(op.kraus, rho), rho, atol=1e-14)


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
    op = _propagator_of(0.5 + 0.0j, 0.6 + 0.0j)
    assert not is_completely_positive(op)


def test_composition_law(baseline):
    # Only meaningful where |f(t1)| is resolvable at double precision: below
    # ~1e-4 the cancellation noise of the closed forms dominates f and the
    # ratio f(t2)/f(t1) amplifies it past any fixed tolerance.
    rng = np.random.default_rng(44)
    rho0 = pure_density(baseline.pol).matrix
    checked = 0
    while checked < 25:
        t1, t2 = np.sort(rng.uniform(60.0, 2500.0, size=2))
        if abs(coherence_transfer(baseline, 0, t1)) < 1e-4:
            continue
        lhs = propagator(baseline, 0, t1, t2).apply(
            kraus_conditional(baseline, 0, t1).apply(rho0)
        )
        rhs = kraus_conditional(baseline, 0, t2).apply(rho0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        checked += 1


def test_propagator_ignores_interference_weights(baseline):
    # the propagator is a function of the coherence transfer factors alone
    t1, t2 = 200.0, 900.0
    via_config = propagator(baseline, 0, t1, t2)
    f1, f2 = (complex(coherence_transfer(baseline, 0, t)) for t in (t1, t2))
    assert via_config == QuantumOperation(1.0, 1.0, f2 / f1)


def test_equivalence_of_coherence_growth_and_trace_distance_growth():
    from mzdephase.analysis import trace_distance_series

    for name in ("dtau10", "dtau1p5"):
        cfg = preset(name)
        grid = np.linspace(60.0, 2200.0, 800)
        for jp, location in ((0, "path0_out"), (1, "path1_out")):
            fmod = np.abs(coherence_transfer(cfg, jp, grid))
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
    for grid in ([100.0, 90.0], [100.0]):
        with pytest.raises(ValueError, match="^grid must be strictly increasing with at least 2"):
            divisibility_scan(baseline, 0, grid)
    with pytest.raises(ValueError, match=re.escape("grid must be 1-D, got shape (2, 2)")):
        divisibility_scan(baseline, 0, [[100.0, 200.0], [300.0, 400.0]])
