import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzdephase.analysis import TraceDistanceSeries
from mzdephase.core import (
    PSD_TOL,
    TRACE_TOL,
    UNIT_TRACE_TOL,
    DensityMatrix,
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
    check_density_matrices,
    effective_time,
    kappa_of_delay,
    pure_density,
    trace_distance,
    trace_distances,
)
from mzdephase.maps import QuantumOperation
from mzdephase.oracle import FrequencyGrid

DIST = FrequencyDistribution(mu=400.0)


def quadrature_kappa(dist, x, n=2001, half=8.0):
    """Independent check: trapezoid quadrature of the spectral average."""
    om = np.linspace(dist.mu - half, dist.mu + half, n)
    pdf = np.exp(-0.5 * (om - dist.mu) ** 2)
    pdf /= np.sqrt(2 * np.pi)
    values = pdf * np.exp(1j * om * x)
    # the trapezoid rule written out: np.trapezoid needs numpy >= 2.0
    integral = (om[1] - om[0]) * (values.sum() - 0.5 * (values[0] + values[-1]))
    return integral


# ---------------------------------------------------------------------------
# effective_time
# ---------------------------------------------------------------------------

def test_effective_time_examples():
    w = InteractionWindow(1.553, 1.544, 0.0, 50.0)
    assert effective_time(w, 25.0) == 25.0
    assert effective_time(w, 75.0) == 50.0
    assert effective_time(w, -0.0) == 0.0


def test_effective_time_lipschitz_and_saturation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        start = rng.uniform(0, 30)
        w = InteractionWindow(1.55, 1.54, start, start + rng.uniform(1, 50))
        ts = np.sort(rng.uniform(0, 120, size=200))
        vals = effective_time(w, ts)
        diffs = np.diff(vals)
        steps = np.diff(ts)
        assert np.all(diffs >= 0)
        assert np.all(diffs <= steps + 1e-12)
        assert effective_time(w, w.t_start - 1.0) == 0.0
        assert effective_time(w, w.t_stop + 5.0) == w.duration


# ---------------------------------------------------------------------------
# kappa_of_delay
# ---------------------------------------------------------------------------

def test_kappa_zero_delay_is_pure_phase():
    # no delay, no phase: the input's theta is not the kernel's
    assert kappa_of_delay(DIST, 0.0) == 1.0
    np.testing.assert_array_equal(kappa_of_delay(DIST, np.zeros(3)), np.ones(3))


def test_kappa_unit_delay_frozen_values():
    # frozen from quadrature of the spectral average on a 2001-point grid
    k = kappa_of_delay(DIST, 1.0)
    assert abs(k) == pytest.approx(0.6065306597126334, rel=1e-12)
    assert np.angle(k) == pytest.approx(-2.123859659493535, abs=1e-12)
    assert abs(k - quadrature_kappa(DIST, 1.0)) < 1e-9


def test_kappa_gaussian_tail_vanishes():
    assert abs(kappa_of_delay(DIST, 12.0)) < 1e-31
    assert abs(kappa_of_delay(DIST, 20.0)) < 1e-80


def test_kappa_matches_quadrature_on_random_delays():
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.0, 4.0, size=50):
        assert abs(kappa_of_delay(DIST, x) - quadrature_kappa(DIST, x)) < 1e-6


def test_kappa_modulus_multiplicativity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        lhs = abs(kappa_of_delay(DIST, x1 + x2))
        rhs = (
            abs(kappa_of_delay(DIST, x1))
            * abs(kappa_of_delay(DIST, x2))
            * np.exp(-x1 * x2)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_kappa_vectorized():
    xs = np.array([0.0, 0.5, 1.0])
    ks = kappa_of_delay(DIST, xs)
    assert ks.shape == (3,)
    assert ks[2] == pytest.approx(kappa_of_delay(DIST, 1.0))


# ---------------------------------------------------------------------------
# trace_distance
# ---------------------------------------------------------------------------

def test_trace_distance_identical_states():
    rho = pure_density(PolarizationState.plus())
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states():
    h = pure_density(PolarizationState(1.0, 0.0))
    v = pure_density(PolarizationState(0.0, 1.0))
    assert trace_distance(h, v) == pytest.approx(1.0, abs=1e-15)


def test_trace_distance_dephased_pair_equals_coherence_modulus():
    rng = np.random.default_rng(5)
    for _ in range(20):
        kappa = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        plus = DensityMatrix(0.5, 0.5, 0.5 * kappa)
        minus = DensityMatrix(0.5, 0.5, -0.5 * kappa)
        assert trace_distance(plus, minus) == pytest.approx(abs(kappa), abs=1e-12)


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(6)

    def random_state():
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = raw @ raw.conj().T
        m /= np.trace(m).real
        return DensityMatrix(m[0, 0].real, m[1, 1].real, m[0, 1])

    for _ in range(30):
        a, b, c = random_state(), random_state(), random_state()
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


# ---------------------------------------------------------------------------
# pure_density
# ---------------------------------------------------------------------------

def test_pure_density_plus_state():
    rho = pure_density(PolarizationState.plus())
    np.testing.assert_allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_pure_density_horizontal():
    rho = pure_density(PolarizationState(1.0, 0.0))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_pure_density_relative_phase():
    s = 1 / np.sqrt(2)
    rho = pure_density(PolarizationState(s, s, np.pi))
    assert rho.coherence == pytest.approx(-0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_polarization_must_be_normalized():
    # an amplitude beyond the float range is refused in the same way
    for c_h in (0.9, 1e200, complex(1e308, 1e308)):
        with pytest.raises(ValueError, match="expected 1"):
            PolarizationState(c_h, 0.1)


@given(st.floats(-math.pi, math.pi))
def test_polarization_keeps_a_theta_within_pi(theta):
    assert PolarizationState(1.0, 0.0, theta).theta == theta


@pytest.mark.parametrize("theta", [7.0, -7.0, 1.7e308])
def test_polarization_keeps_a_theta_beyond_pi(theta):
    assert PolarizationState(1.0, 0.0, theta).theta == theta


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_polarization_refuses_a_theta_not_finite(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        PolarizationState(1.0, 0.0, theta)


def test_polarization_refuses_a_nan_amplitude():
    for c_h, c_v in ((complex(math.nan), 0.7), (0.7, math.nan), (complex(0.7, math.nan), 0.7)):
        with pytest.raises(ValueError, match="expected 1"):
            PolarizationState(c_h, c_v)


def test_window_ordering_enforced():
    with pytest.raises(ValueError):
        InteractionWindow(1.55, 1.54, 10.0, 5.0)
    with pytest.raises(ValueError, match="must not exceed t_stop nan"):
        InteractionWindow(1.55, 1.54, 0.0, math.nan)


@pytest.mark.parametrize("n_h, n_v", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf),
])
def test_window_refuses_indices_not_finite(n_h, n_v):
    with pytest.raises(ValueError, match="must be finite"):
        InteractionWindow(n_h, n_v, 0.0, 1.0)


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="^matrix is not positive semidefinite: min eig -0.3"):
        DensityMatrix(0.2, 0.2, 0.5)


def test_density_matrix_rejects_trace_above_one():
    with pytest.raises(ValueError, match=r"^trace 1\.6 outside \[0, 1\]$"):
        DensityMatrix(0.8, 0.8, 0.0)


def test_density_matrix_rejects_trace_below_one():
    # a port state before the division by its probability is a Kraus map's
    # output (maps.kraus_conditional), not a DensityMatrix
    with pytest.raises(ValueError, match=r"^trace 0\.6 differs from 1$"):
        DensityMatrix(0.3, 0.3, 0.0)


def test_config_requires_output_after_arms():
    dist = DIST
    w0 = InteractionWindow(1.553, 1.544, 0.0, 50.0)
    w1 = InteractionWindow(1.553, 1.544, 0.0, 60.0)
    w_bad = InteractionWindow(1.553, 1.544, 55.0, np.inf)
    with pytest.raises(ValueError):
        InterferometerConfig(dist, w0, w1, w_bad, PolarizationState.plus())


@pytest.mark.parametrize("triple", [
    (0.5, 0.5, math.nan),
    (math.nan, 0.5, 0.0),
    (0.5, math.nan, 0.0),
    (0.5, 0.5, complex(0.0, math.nan)),
    (0.5, 0.5, complex(math.inf, 0.0)),
    (math.inf, 0.5, 0.0),
    (0.5, -math.inf, 0.0),
    (math.inf, math.inf, 0.0),
])
def test_density_matrix_rejects_non_finite_entries(triple):
    with pytest.raises(ValueError):
        DensityMatrix(*triple)


# ---------------------------------------------------------------------------
# closed-form 2x2 kernels against their LAPACK and array references
# ---------------------------------------------------------------------------

def assembled(p_h, p_v, c):
    """The 2x2 array [[p_h, c], [c^*, p_v]]."""
    return np.array([[p_h, c], [np.conj(c), p_v]], dtype=complex)


def eigvalsh_verdict(triple):
    """The checks DensityMatrix makes, computed with eigvalsh on the
    assembled matrix: the first one that fails, or None."""
    m = assembled(*triple)
    if np.linalg.eigvalsh(m)[0] < -PSD_TOL:
        return "positive semidefinite"
    tr = float(np.real(np.trace(m)))
    if tr < -TRACE_TOL or tr > 1.0 + TRACE_TOL:
        return "outside [0, 1]"
    if abs(tr - 1.0) > UNIT_TRACE_TOL:
        return "differs from 1"
    return None


def scalar_message(triple):
    try:
        DensityMatrix(*triple)
    except ValueError as exc:
        return str(exc)
    return None


def closed_form_verdict(triple):
    message = scalar_message(triple)
    if message is None:
        return None
    for reason in ("positive semidefinite", "outside [0, 1]", "differs from 1"):
        if reason in message:
            return reason
    raise AssertionError(message)


# a factor that puts a quantity clearly inside or outside its tolerance
_NEAR = st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 3.0))
_SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def triples_near_the_tolerances(draw):
    """A state (p_h, p_v, c) with prescribed trace and smallest eigenvalue,
    each either generic (a trace of one, or any in [0, 1]) or within a few
    tolerances of the point where a check flips."""
    case = draw(st.sampled_from(["generic", "psd", "trace", "unit"]))
    tr = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    lowest = draw(st.floats(-0.5, 0.5)) * tr
    if case == "psd":
        lowest = -draw(_NEAR) * PSD_TOL
    elif case == "trace":
        tr = draw(st.sampled_from([1.0 + draw(_NEAR) * TRACE_TOL, -draw(_NEAR) * TRACE_TOL]))
        lowest = min(tr / 2.0, 0.0)
    elif case == "unit":
        tr = 1.0 + draw(_SIGN) * draw(_NEAR) * UNIT_TRACE_TOL
        lowest = draw(st.floats(0.0, 0.5)) * tr
    r = max(tr / 2.0 - lowest, 0.0)
    alpha = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(-math.pi, math.pi))
    return (tr / 2.0 + r * math.cos(alpha), tr / 2.0 - r * math.cos(alpha),
            r * math.sin(alpha) * complex(math.cos(phi), math.sin(phi)))


def closed_form_lowest(triple):
    """The smallest eigenvalue DensityMatrix computes for a state, read from
    the message with which it refuses the state lowered by 2 PSD_TOL."""
    p_h, p_v, c = triple
    shift = 2.0 * PSD_TOL
    with pytest.raises(ValueError, match="semidefinite") as info:
        DensityMatrix(p_h - shift, p_v - shift, c)
    return float(str(info.value).rsplit(" ", 1)[1]) + shift


@settings(max_examples=600, deadline=None)
@given(triples_near_the_tolerances())
# a smallest eigenvalue 2.2e-17 above -PSD_TOL, which tr/2 - hypot puts
# 8.9e-17 below it
@example((1.000000000001, -9.999778782798785e-13, 0j))
def test_density_matrix_checks_agree_with_eigvalsh(triple):
    want = eigvalsh_verdict(triple)
    lowest = np.linalg.eigvalsh(assembled(*triple))[0]
    # within a few roundings of the trace of -PSD_TOL, the closed form and
    # eigvalsh may fall on opposite sides of it: there their smallest
    # eigenvalues must agree instead
    band = 4.0 * np.finfo(float).eps * max(abs(triple[0] + triple[1]), 1.0)
    got = closed_form_verdict(triple)
    if abs(lowest + PSD_TOL) > band:
        assert got == want
    else:
        assert got == want or "positive semidefinite" in (got, want)
        assert abs(closed_form_lowest(triple) - lowest) <= band


@st.composite
def triples_with_non_finite_entries(draw):
    """A state near the tolerances with one population, or one part of the
    coherence, replaced by NaN or an infinity."""
    p_h, p_v, c = draw(triples_near_the_tolerances())
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    spot = draw(st.sampled_from(["p_h", "p_v", "real", "imag"]))
    if spot == "p_h":
        p_h = bad
    elif spot == "p_v":
        p_v = bad
    elif spot == "real":
        c = complex(bad, c.imag)
    else:
        c = complex(c.real, bad)
    return p_h, p_v, c


def array_message(p_h, p_v, c):
    try:
        check_density_matrices(p_h, p_v, c)
    except ValueError as exc:
        return str(exc)
    return None


_ANY_TRIPLE = st.one_of(triples_near_the_tolerances(), triples_with_non_finite_entries())


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANY_TRIPLE, min_size=1, max_size=6),
       st.booleans())
# the smallest eigenvalue cancels to -1.9e-12, so a one-ulp difference between
# two hypot implementations would show in its fifth digit
@example([(0.41438630438862695, 0.1811301952353624, 0.27396691810856244)], False)
def test_array_check_raises_the_message_of_the_first_failing_state(triples, rows):
    # the first state, in C order, whose DensityMatrix raises, raises the
    # same message from the array check; as one row, or as two rows when the
    # count is even
    want = next((m for m in (scalar_message(t) for t in triples) if m), None)
    shape = (2, -1) if rows and len(triples) % 2 == 0 else (-1,)
    p_h, p_v, c = (np.reshape(np.array(x), shape) for x in zip(*triples))
    assert array_message(p_h, p_v, c.astype(complex)) == want


def test_array_check_names_the_first_rejected_state():
    # a 2x2 grid of states with populations 1/2: [[good, not PSD], [NaN
    # coherence, good]]
    p_h = p_v = np.full((2, 2), 0.5)
    c = np.array([[0.5, 0.6], [math.nan, 0.5]])
    not_psd = scalar_message((0.5, 0.5, 0.6))
    assert array_message(p_h, p_v, c) == not_psd
    assert array_message(p_h[1:], p_v[1:], c[1:]) == "matrix is not positive semidefinite: min eig nan"
    assert array_message(p_h[:, :1], p_v[:, :1], c[:, :1]) == array_message(p_h[1:], p_v[1:], c[1:])
    # the populations broadcast against the coherences
    assert array_message(0.5, 0.5, [0.5, 0.6]) == not_psd
    assert array_message(np.empty(0), np.empty(0), np.empty(0)) is None
    assert array_message([0.5, 0.25], [0.5, 0.25], [0.5, 0.0]) == "trace 0.5 differs from 1"


@st.composite
def unit_trace_states(draw):
    """A state (1 + r.sigma)/2 with the Bloch vector r in the unit ball."""
    x, y, z = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    length = math.sqrt(x * x + y * y + z * z)
    scale = draw(st.floats(0.0, 1.0)) / length if length > 1.0 else 1.0
    x, y, z = x * scale, y * scale, z * scale
    return DensityMatrix((1 + z) / 2, (1 - z) / 2, complex(x, -y) / 2)


@settings(max_examples=300, deadline=None)
@given(unit_trace_states())
def test_copies_keep_the_three_numbers_and_a_read_only_matrix(state):
    p_h, p_v, c = state.population_h, state.population_v, state.coherence
    rho = DensityMatrix(p_h, p_v, c)
    want = assembled(p_h, p_v, c)
    for got in (rho, copy.copy(rho), pickle.loads(pickle.dumps(rho))):
        assert got.matrix.dtype == complex and got.matrix.tobytes() == want.tobytes()
        assert not got.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.matrix[0, 1] = 0.0
        assert got.matrix is not got.matrix  # a view of the three numbers
        assert repr(got) == f"DensityMatrix({p_h!r}, {p_v!r}, {c!r})"
        assert got.trace == p_h + p_v
        assert type(got.population_h) is float and type(got.coherence) is complex
        assert (got.population_h, got.population_v, got.coherence) == (p_h, p_v, c)
    with pytest.raises(AttributeError):
        rho.coherence = 0j
    with pytest.raises(AttributeError):
        rho.label = "rho"


def test_numpy_and_python_numbers_build_the_same_state():
    got = DensityMatrix(np.float64(0.5), np.float64(0.5), np.complex128(0.5j))
    assert (type(got.population_h), type(got.population_v), type(got.coherence)) == (
        float, float, complex)
    assert repr(got) == repr(DensityMatrix(0.5, 0.5, 0.5j)) == "DensityMatrix(0.5, 0.5, 0.5j)"


@settings(max_examples=400, deadline=None)
@given(unit_trace_states(), unit_trace_states())
def test_trace_distance_matches_eigvalsh(a, b):
    want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)))
    assert abs(trace_distance(a, b) - want) <= 1e-15


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(unit_trace_states(), unit_trace_states()), min_size=1, max_size=5))
def test_trace_distances_match_the_scalar_closed_form(pairs):
    def triple(states):
        return (np.array([s.population_h for s in states]),
                np.array([s.population_v for s in states]),
                np.array([s.coherence for s in states]))

    a, b = triple([p for p, _ in pairs]), triple([q for _, q in pairs])
    want = [trace_distance(p, q) for p, q in pairs]
    np.testing.assert_allclose(trace_distances(a, b), want, rtol=1e-15, atol=1e-300)


@st.composite
def windows_and_edge_times(draw):
    start = draw(st.floats(0.0, 100.0))
    stop = draw(st.one_of(st.just(math.inf), st.floats(start, start + 100.0)))
    edge = draw(st.sampled_from([start, stop if math.isfinite(stop) else start]))
    t = draw(st.one_of(
        st.just(edge),
        st.floats(-1e-9, 1e-9).map(lambda dt: edge + dt),
        st.floats(-10.0, 300.0),
    ))
    n_v = draw(st.floats(1.0, 2.0))
    return InteractionWindow(n_v + draw(st.floats(-0.05, 0.05)), n_v, start, stop), t


@settings(max_examples=400, deadline=None)
@given(windows_and_edge_times(), st.floats(50.0, 600.0))
def test_scalar_and_array_kernels_agree(window_and_t, mu):
    window, t = window_and_t
    dist = FrequencyDistribution(mu=mu)
    for scalar_t in (t, np.float64(t)):
        eff = effective_time(window, scalar_t)
        assert type(eff) is float
        assert abs(eff - effective_time(window, np.array([t]))[0]) <= 1e-15
        x = window.delta_n * eff
        kappa = kappa_of_delay(dist, x)
        assert type(kappa) is complex
        assert abs(kappa - kappa_of_delay(dist, np.array([x]))[0]) <= 1e-15


_WINDOWS = (InteractionWindow(1.553, 1.544, 0.0, 50.0), InteractionWindow(1.553, 1.544, 0.0, 40.0),
            InteractionWindow(1.553, 1.544, 60.0, math.inf))


# each value type: its fields, positional arguments that build it, and its
# repr text where that text is short (None: built from the fields' reprs)
_VALUE_TYPES = [
    (FrequencyDistribution, ("mu",), lambda: (400.0,), "FrequencyDistribution(mu=400.0)"),
    (PolarizationState, ("c_h", "c_v", "theta"), lambda: (0.6, 0.8j, 0.25),
     "PolarizationState(c_h=0.6, c_v=0.8j, theta=0.25)"),
    (InteractionWindow, ("n_h", "n_v", "t_start", "t_stop"), lambda: (1.553, 1.544, 0.0, 50.0),
     "InteractionWindow(n_h=1.553, n_v=1.544, t_start=0.0, t_stop=50.0)"),
    (InterferometerConfig, ("dist", "window0", "window1", "window_out", "pol"),
     lambda: (DIST, *_WINDOWS, PolarizationState.plus()), None),
    (QuantumOperation, ("h", "v", "g"), lambda: (1.0, 1.0, 0.5j),
     "QuantumOperation(h=1.0, v=1.0, g=0.5j)"),
    (TraceDistanceSeries, ("times", "values", "location"),
     lambda: (np.array([60.0, 61.0]), np.array([0.5, 0.25]), "path0_out"), None),
    (FrequencyGrid, ("omegas", "weights"),
     lambda: (np.array([1.0, 2.0, 3.0]), np.array([0.25, 0.5, 0.25])), None),
]


@pytest.mark.parametrize("cls, names, args, text", _VALUE_TYPES,
                         ids=[case[0].__name__ for case in _VALUE_TYPES])
def test_value_types_behave_as_frozen_dataclasses(cls, names, args, text):
    def fields(value):
        return [getattr(value, name) for name in names]

    def same(a, b):
        return type(a) is type(b) and all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in zip(fields(a), fields(b)))

    value = cls(*args())
    holds_arrays = any(isinstance(x, np.ndarray) for x in fields(value))
    assert same(value, cls(**dict(zip(names, args()))))
    assert value == value and value != object() and value != tuple(fields(value))
    if holds_arrays:  # == and hash compare the field tuples, as a dataclass does
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        other = cls(*args())
        assert other is not value and other == value and hash(other) == hash(value)
        assert hash(value) == hash(tuple(fields(value)))
    want = text or f"{cls.__qualname__}(" + ", ".join(
        f"{name}={x!r}" for name, x in zip(names, fields(value))) + ")"
    assert repr(value) == want
    for name, x in zip(names, fields(value)):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, x)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert same(copied, value)
    assert dataclasses.is_dataclass(value) == (cls in (InteractionWindow, InterferometerConfig))
