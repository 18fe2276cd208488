import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzdephase.core import (
    HERMITICITY_TOL,
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

DIST = FrequencyDistribution(mu=400.0)


def quadrature_kappa(dist, theta, x, n=2001, half=8.0):
    """Independent check: trapezoid quadrature of the spectral average."""
    om = np.linspace(dist.mu - half, dist.mu + half, n)
    pdf = np.exp(-0.5 * (om - dist.mu) ** 2)
    pdf /= np.sqrt(2 * np.pi)
    values = pdf * np.exp(1j * om * x)
    # the trapezoid rule written out: np.trapezoid needs numpy >= 2.0
    integral = (om[1] - om[0]) * (values.sum() - 0.5 * (values[0] + values[-1]))
    return np.exp(1j * theta) * integral


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
    for theta in (0.0, 1.0, -2.5):
        k = kappa_of_delay(DIST, theta, 0.0)
        assert k == pytest.approx(np.exp(1j * theta), abs=1e-15)


def test_kappa_unit_delay_frozen_values():
    # frozen from quadrature of the spectral average on a 2001-point grid
    k = kappa_of_delay(DIST, 0.0, 1.0)
    assert abs(k) == pytest.approx(0.6065306597126334, rel=1e-12)
    assert np.angle(k) == pytest.approx(-2.123859659493535, abs=1e-12)
    assert abs(k - quadrature_kappa(DIST, 0.0, 1.0)) < 1e-9


def test_kappa_gaussian_tail_vanishes():
    assert abs(kappa_of_delay(DIST, 0.3, 12.0)) < 1e-31
    assert abs(kappa_of_delay(DIST, 0.0, 20.0)) < 1e-80


def test_kappa_matches_quadrature_on_random_delays():
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.0, 4.0, size=50):
        theta = rng.uniform(-np.pi, np.pi)
        closed = kappa_of_delay(DIST, theta, x)
        assert abs(closed - quadrature_kappa(DIST, theta, x)) < 1e-6


def test_kappa_modulus_multiplicativity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        lhs = abs(kappa_of_delay(DIST, 0.0, x1 + x2))
        rhs = (
            abs(kappa_of_delay(DIST, 0.0, x1))
            * abs(kappa_of_delay(DIST, 0.0, x2))
            * np.exp(-x1 * x2)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_kappa_vectorized():
    xs = np.array([0.0, 0.5, 1.0])
    ks = kappa_of_delay(DIST, 0.0, xs)
    assert ks.shape == (3,)
    assert ks[2] == pytest.approx(kappa_of_delay(DIST, 0.0, 1.0))


# ---------------------------------------------------------------------------
# trace_distance
# ---------------------------------------------------------------------------

def test_trace_distance_identical_states():
    rho = pure_density(PolarizationState.plus())
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states():
    h = pure_density(PolarizationState.horizontal())
    v = pure_density(PolarizationState.vertical())
    assert trace_distance(h, v) == pytest.approx(1.0, abs=1e-15)


def test_trace_distance_dephased_pair_equals_coherence_modulus():
    rng = np.random.default_rng(5)
    for _ in range(20):
        kappa = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        plus = DensityMatrix([[0.5, 0.5 * kappa], [0.5 * np.conj(kappa), 0.5]])
        minus = DensityMatrix([[0.5, -0.5 * kappa], [-0.5 * np.conj(kappa), 0.5]])
        assert trace_distance(plus, minus) == pytest.approx(abs(kappa), abs=1e-12)


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(6)

    def random_state():
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = raw @ raw.conj().T
        return DensityMatrix(m / np.trace(m).real)

    for _ in range(30):
        a, b, c = random_state(), random_state(), random_state()
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_trace_distance_rejects_subnormalized_input():
    rho = pure_density(PolarizationState.plus())
    sub = DensityMatrix(0.5 * rho.matrix, require_unit_trace=False)
    with pytest.raises(ValueError):
        trace_distance(rho, sub)


# ---------------------------------------------------------------------------
# pure_density
# ---------------------------------------------------------------------------

def test_pure_density_plus_state():
    rho = pure_density(PolarizationState.plus())
    np.testing.assert_allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_pure_density_horizontal():
    rho = pure_density(PolarizationState.horizontal())
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


@pytest.mark.parametrize("theta, reduced", [
    (7.0, 7.0 - 2.0 * math.pi),
    (-7.0, 2.0 * math.pi - 7.0),
    (1.7e308, math.remainder(1.7e308, 2.0 * math.pi)),
])
def test_polarization_reduces_theta_beyond_pi(theta, reduced):
    got = PolarizationState(1.0, 0.0, theta).theta
    assert -math.pi <= got <= math.pi
    assert got == pytest.approx(reduced, abs=1e-15)


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


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix([[0.5, 0.5], [0.1, 0.5]])


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix([[0.2, 0.5], [0.5, 0.2]])


def test_density_matrix_rejects_trace_above_one():
    with pytest.raises(ValueError):
        DensityMatrix([[0.8, 0.0], [0.0, 0.8]], require_unit_trace=False)


def test_density_matrix_allows_subnormalized_when_flagged():
    rho = DensityMatrix([[0.3, 0.0], [0.0, 0.3]], require_unit_trace=False)
    assert rho.trace == pytest.approx(0.6)
    assert not rho.unit_trace


def test_config_requires_output_after_arms():
    dist = DIST
    w0 = InteractionWindow(1.553, 1.544, 0.0, 50.0)
    w1 = InteractionWindow(1.553, 1.544, 0.0, 60.0)
    w_bad = InteractionWindow(1.553, 1.544, 55.0, np.inf)
    with pytest.raises(ValueError):
        InterferometerConfig(dist, w0, w1, w_bad, PolarizationState.plus())


@pytest.mark.parametrize("matrix", [
    [[0.5, math.nan], [math.nan, 0.5]],
    [[0.5, 0.0], [math.nan, 0.5]],
    [[0.5, math.nan], [0.0, 0.5]],
    [[math.nan, 0.0], [0.0, 0.5]],
    [[complex(0.5, math.nan), 0.0], [0.0, 0.5]],
    [[0.5, complex(math.inf, 0.0)], [complex(math.inf, 0.0), 0.5]],
])
def test_density_matrix_rejects_non_finite_entries(matrix):
    with pytest.raises(ValueError):
        DensityMatrix(matrix)


# ---------------------------------------------------------------------------
# closed-form 2x2 kernels against their LAPACK and array references
# ---------------------------------------------------------------------------

def eigvalsh_verdict(m, require_unit_trace):
    """The checks DensityMatrix makes, computed with eigvalsh: the first one
    that fails, or None."""
    m = np.asarray(m, dtype=complex)
    # the modulus of each entry of m - m^dag as the correctly rounded hypot
    # of its parts: numpy's abs of a complex array may be one ulp high, which
    # flips the verdict on a defect of exactly HERMITICITY_TOL
    skew = m - m.conj().T
    if np.max(np.hypot(skew.real, skew.imag)) > HERMITICITY_TOL:
        return "Hermitian"
    if np.linalg.eigvalsh(m)[0] < -PSD_TOL:
        return "positive semidefinite"
    tr = float(np.real(np.trace(m)))
    if tr < -TRACE_TOL or tr > 1.0 + TRACE_TOL:
        return "outside [0, 1]"
    if require_unit_trace and abs(tr - 1.0) > UNIT_TRACE_TOL:
        return "differs from 1"
    return None


def as_tuples(m):
    """The nested 2x2 tuple of Python numbers that DensityMatrix reads
    without numpy."""
    return tuple(tuple(row) for row in m)


def closed_form_verdict(m, require_unit_trace):
    try:
        DensityMatrix(m, require_unit_trace=require_unit_trace)
    except ValueError as exc:
        for reason in ("Hermitian", "positive semidefinite", "outside [0, 1]",
                       "differs from 1"):
            if reason in str(exc):
                return reason
        raise
    return None


# a factor that puts a quantity clearly inside or outside its tolerance
_NEAR = st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 3.0))
_SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def matrices_near_the_tolerances(draw):
    """A 2x2 matrix [[a, b], [c, d]] with prescribed trace, smallest
    eigenvalue and Hermiticity defect (off the diagonal or in one diagonal
    entry), each either generic or within a few tolerances of the point where
    a check flips; and the unit-trace flag."""
    case = draw(st.sampled_from(["generic", "psd", "trace", "unit", "hermitian"]))
    unit = draw(st.booleans())
    tr = draw(st.floats(0.0, 1.0))
    lowest = draw(st.floats(-0.5, 0.5)) * tr
    defect = draw(st.floats(0.0, 2.0)) * HERMITICITY_TOL
    if case == "psd":
        lowest = -draw(_NEAR) * PSD_TOL
    elif case == "trace":
        unit = False
        tr = draw(st.sampled_from([1.0 + draw(_NEAR) * TRACE_TOL, -draw(_NEAR) * TRACE_TOL]))
        lowest = min(tr / 2.0, 0.0)
    elif case == "unit":
        unit = True
        tr = 1.0 + draw(_SIGN) * draw(_NEAR) * UNIT_TRACE_TOL
        lowest = draw(st.floats(0.0, 0.5)) * tr
    elif case == "hermitian":
        defect = draw(_NEAR) * HERMITICITY_TOL
    r = max(tr / 2.0 - lowest, 0.0)
    alpha = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(-math.pi, math.pi))
    psi = draw(st.floats(-math.pi, math.pi))
    a = tr / 2.0 + r * math.cos(alpha)
    d = tr / 2.0 - r * math.cos(alpha)
    c = r * math.sin(alpha) * complex(math.cos(phi), math.sin(phi))
    spot = draw(st.sampled_from(["off-diagonal", "a", "d"]))
    if spot == "off-diagonal":
        return [[a, c.conjugate() + defect * complex(math.cos(psi), math.sin(psi))],
                [c, d]], unit
    # a diagonal entry x misses Hermiticity by |x - x^*| = 2 |Im x|
    if spot == "a":
        a = complex(a, defect / 2.0)
    else:
        d = complex(d, defect / 2.0)
    return [[a, c.conjugate()], [c, d]], unit


def closed_form_lowest(m):
    """The smallest eigenvalue DensityMatrix computes for a Hermitian m, read
    from the message with which it refuses m lowered by 2 PSD_TOL."""
    shift = 2.0 * PSD_TOL
    with pytest.raises(ValueError, match="semidefinite") as info:
        DensityMatrix(np.asarray(m, dtype=complex) - shift * np.eye(2),
                      require_unit_trace=False)
    return float(str(info.value).rsplit(" ", 1)[1]) + shift


@settings(max_examples=600, deadline=None)
@given(matrices_near_the_tolerances())
# Hermitian within tolerance, but only the lower triangle, which eigvalsh
# reads, puts the smallest eigenvalue below -PSD_TOL
@example(([[0.5, 0.5 + 0.2e-12], [0.5 + 1.05e-12, 0.5]], True))
# an off-diagonal defect whose exact modulus, 1.00000000000000005e-12, rounds
# to HERMITICITY_TOL, and which numpy's complex abs rounds one ulp above it
@example(([[1.0, -9.792452874065205e-13 + 2.0267872876086712e-13j], [0j, 0.0]], False))
# a smallest eigenvalue 2.2e-17 above -PSD_TOL, which tr/2 - hypot puts
# 8.9e-17 below it
@example(([[1.000000000001, 0], [0, -9.999778782798785e-13]], False))
def test_density_matrix_checks_agree_with_eigvalsh(case):
    m, unit = case
    want = eigvalsh_verdict(m, unit)
    lowest = np.linalg.eigvalsh(np.asarray(m, dtype=complex))[0]
    # within a few roundings of the trace of -PSD_TOL, the closed form and
    # eigvalsh may fall on opposite sides of it: there their smallest
    # eigenvalues must agree instead
    band = 4.0 * np.finfo(float).eps * max(abs(np.trace(np.asarray(m)).real), 1.0)
    got = closed_form_verdict(m, unit)
    # the tuple form is read without numpy, to the same verdict and message
    assert closed_form_verdict(as_tuples(m), unit) == got
    assert scalar_message(as_tuples(m), unit) == scalar_message(m, unit)
    if want == "Hermitian" or abs(lowest + PSD_TOL) > band:
        assert got == want
    else:
        assert got == want or "positive semidefinite" in (got, want)
        assert abs(closed_form_lowest(m) - lowest) <= band


def array_message(matrices):
    try:
        check_density_matrices(matrices)
    except ValueError as exc:
        return str(exc)
    return None


def scalar_message(m, require_unit_trace):
    try:
        DensityMatrix(m, require_unit_trace=require_unit_trace)
    except ValueError as exc:
        return str(exc)
    return None


def assert_same_rejection(got, want):
    """Both accept, or both reject for the same reason. The smallest
    eigenvalue a PSD message prints may differ in its last digit, because
    numpy's hypot and math.hypot may round differently."""
    if want is None or got is None or "semidefinite" not in want:
        assert got == want
    else:
        prefix = "matrix is not positive semidefinite: min eig "
        assert got.startswith(prefix) and want.startswith(prefix)
        g, w = float(got.removeprefix(prefix)), float(want.removeprefix(prefix))
        assert g == pytest.approx(w, rel=1e-15, abs=1e-300, nan_ok=True)


@st.composite
def matrices_with_non_finite_entries(draw):
    """A matrix near the tolerances with one real or imaginary part replaced
    by NaN or an infinity."""
    m, unit = draw(matrices_near_the_tolerances())
    m = np.array(m, dtype=complex)
    i, j = draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if draw(st.booleans()):
        m[i, j] = complex(bad, m[i, j].imag)
    else:
        m[i, j] = complex(m[i, j].real, bad)
    return m.tolist(), unit


@settings(max_examples=600, deadline=None)
@given(st.one_of(matrices_near_the_tolerances(), matrices_with_non_finite_entries()))
@example(([[0.5, 0.5 + 0.2e-12], [0.5 + 1.05e-12, 0.5]], True))
# the smallest eigenvalue cancels to -1.9e-12, so a one-ulp difference between
# two hypot implementations would show in its fifth digit
@example((
    [[0.41438630438862695, 0.27396691810856244], [0.27396691810856244, 0.1811301952353624]],
    False,
))
def test_array_check_rejects_exactly_what_density_matrix_rejects(case):
    m, _ = case
    assert_same_rejection(array_message([m]), scalar_message(m, True))
    assert scalar_message(as_tuples(m), True) == scalar_message(m, True)


def test_array_check_names_the_first_rejected_matrix():
    good = [[0.5, 0.5], [0.5, 0.5]]
    not_psd = [[0.5, 0.6], [0.6, 0.5]]
    not_hermitian = [[0.5, 0.1j], [0.1j, 0.5]]
    stack = np.array([[good, not_psd], [not_hermitian, good]])
    assert array_message(stack) == scalar_message(not_psd, True)
    assert array_message(stack[1:]) == "matrix is not Hermitian"
    assert array_message(stack[:, :1]) == "matrix is not Hermitian"
    assert array_message(np.empty((0, 2, 2))) is None
    half = [[0.25, 0.0], [0.0, 0.25]]
    assert array_message([good, half]) == "trace 0.5 differs from 1"


@st.composite
def unit_trace_states(draw):
    """A state (1 + r.sigma)/2 with the Bloch vector r in the unit ball."""
    x, y, z = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    length = math.sqrt(x * x + y * y + z * z)
    scale = draw(st.floats(0.0, 1.0)) / length if length > 1.0 else 1.0
    x, y, z = x * scale, y * scale, z * scale
    return DensityMatrix([[(1 + z) / 2, complex(x, -y) / 2], [complex(x, y) / 2, (1 - z) / 2]])


@settings(max_examples=300, deadline=None)
@given(unit_trace_states(), st.booleans())
def test_tuple_and_array_forms_build_the_same_state(state, unit):
    m = state.matrix.tolist()
    if not unit:
        m = [[x * 0.5 for x in row] for row in m]
    from_array = DensityMatrix(np.array(m), require_unit_trace=unit)
    from_tuple = DensityMatrix(as_tuples(m), require_unit_trace=unit)
    # copies made before .matrix is first read build it just the same
    copies = [copy.copy(from_tuple), pickle.loads(pickle.dumps(from_tuple))]
    for got in [from_tuple, *copies]:
        assert got.matrix.dtype == complex and got.matrix.shape == (2, 2)
        assert got.matrix.tobytes() == from_array.matrix.tobytes()
        assert not got.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.matrix[0, 1] = 0.0
        want_repr = f"DensityMatrix({np.array(m, dtype=complex).tolist()!r})"
        assert repr(got) == repr(from_array) == want_repr
        assert got.trace == from_array.trace and got.unit_trace == unit
        assert type(got.population_h) is float and type(got.coherence) is complex
        assert (got.population_h, got.population_v, got.coherence) == (
            from_array.population_h, from_array.population_v, from_array.coherence)
    # and so do copies made after it: no unpickled array is left writeable
    for read in (copy.copy(from_tuple), pickle.loads(pickle.dumps(from_tuple))):
        assert read.matrix.tobytes() == from_array.matrix.tobytes()
        assert not read.matrix.flags.writeable
    with pytest.raises(AttributeError):
        from_tuple.coherence = 0j
    with pytest.raises(AttributeError):
        from_tuple.label = "rho"


@pytest.mark.parametrize("matrix, message", [
    (((0.5, 0.0, 0.0), (0.0, 0.5, 0.0)), "expected a 2x2 matrix, got shape (2, 3)"),
    (((0.5, 0.0),), "expected a 2x2 matrix, got shape (1, 2)"),
    ((0.5, 0.5), "expected a 2x2 matrix, got shape (2,)"),
])
def test_a_tuple_of_another_shape_is_refused_as_an_array_is(matrix, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DensityMatrix(matrix)


def test_a_tuple_of_numpy_scalars_or_bools_builds_the_array_state():
    for entries in [(np.float64(0.5), np.complex128(0.5), 0.5 + 0j, 0.5), (True, 0, 0, False)]:
        matrix = (entries[:2], entries[2:])
        want = DensityMatrix(np.array(matrix, dtype=complex))
        got = DensityMatrix(matrix)
        assert got.matrix.tobytes() == want.matrix.tobytes() and repr(got) == repr(want)


@settings(max_examples=400, deadline=None)
@given(unit_trace_states(), unit_trace_states())
def test_trace_distance_matches_eigvalsh(a, b):
    want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)))
    assert abs(trace_distance(a, b) - want) <= 1e-15


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(unit_trace_states(), unit_trace_states()), min_size=1, max_size=5))
def test_trace_distances_match_the_scalar_closed_form(pairs):
    a = np.array([p.matrix for p, _ in pairs])
    b = np.array([q.matrix for _, q in pairs])
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
@given(windows_and_edge_times(), st.floats(50.0, 600.0), st.floats(-math.pi, math.pi))
def test_scalar_and_array_kernels_agree(window_and_t, mu, theta):
    window, t = window_and_t
    dist = FrequencyDistribution(mu=mu)
    for scalar_t in (t, np.float64(t)):
        eff = effective_time(window, scalar_t)
        assert type(eff) is float
        assert abs(eff - effective_time(window, np.array([t]))[0]) <= 1e-15
        x = window.delta_n * eff
        kappa = kappa_of_delay(dist, theta, x)
        assert type(kappa) is complex
        assert abs(kappa - kappa_of_delay(dist, theta, np.array([x]))[0]) <= 1e-15
