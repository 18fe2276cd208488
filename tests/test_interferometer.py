import cmath
import copy
import math
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import EQUAL_H, PRESETS, preset, random_config, random_polarization
from hypothesis import given, settings
from hypothesis import strategies as st

from mzdephase import channels, core, interferometer, maps

from mzdephase.analysis import LOCATIONS, auto_scan_range, lambda_peak, trace_distance_series
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
from mzdephase.errors import ImpossibleOutcome, PeakNotFound
from mzdephase.interferometer import (
    _lambda_of_total_time,
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
    # times the input coherence c_h e^(i theta) c_v^*
    pol = PolarizationState(0.6, 0.8j, 0.7)
    cfg = replace(baseline, pol=pol)
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.0, 60.0, size=100):
        got = path_state_inside(cfg, 0, t)
        kappa = channels.single_path_kappa(cfg.window0, cfg.dist, t)
        coh = pol.c_h * cmath.exp(1j * pol.theta) * pol.c_v.conjugate() * kappa
        want = DensityMatrix(abs(pol.c_h) ** 2, abs(pol.c_v) ** 2, coh)
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
    want = 2.0 * kappa_of_delay(DIST, cfg.window0.delta_n * 40.0)
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
        k0, k1 = (kappa_of_delay(cfg.dist, x + terms.dn_out * total)
                  for x in (terms.d_0, terms.d_1))
        for jp in (0, 1):
            lhs = 4.0 * coherence_transfer(cfg, jp, ts)
            rhs = k0 + k1 + (-1) ** jp * lam
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)


# ---------------------------------------------------------------------------
# the per-config table of outside terms
# ---------------------------------------------------------------------------

def expected_terms(cfg):
    """Every entry of cfg.outside_terms recomputed from the windows and the
    spectrum."""
    w0, w1, out = cfg.window0, cfg.window1, cfg.window_out
    t0, t1 = w0.t_stop - w0.t_start, w1.t_stop - w1.t_start
    kh = 2.0 * kappa_of_delay(cfg.dist, w0.n_h * t0 - w1.n_h * t1).real
    kv = 2.0 * kappa_of_delay(cfg.dist, w0.n_v * t0 - w1.n_v * t1).real
    centres = ((w0.n_h - w0.n_v) * t0, (w1.n_h - w1.n_v) * t1,
               w0.n_h * t0 - w1.n_v * t1, w1.n_h * t1 - w0.n_v * t0)
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
        "transfer_weights": tuple(
            tuple(c * cmath.exp(1j * (cfg.dist.mu * b)) for c, b in zip(row, centres))
            for row in TRANSFER_ROWS
        ),
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
    assert all(type(x) is float for x in (terms.kappa_h, terms.kappa_v))
    assert all(type(w) is complex for row in terms.transfer_weights for w in row)
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
    # the polarization is the open system: a copy that changes only it
    # computes an equal table
    if field == "pol":
        assert changed.outside_terms == terms


def _counted(monkeypatch, name, modules) -> list:
    """Record every call of the function ``name``, wherever the package
    looks it up among ``modules``."""
    calls = []
    kernel = getattr(modules[0], name)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


# any input polarization: amplitudes cos(a) e^(i phi_h) and sin(a) e^(i
# phi_v), pure H and pure V included, and any finite theta
_POLARIZATIONS = st.builds(
    lambda a, phi_h, phi_v, theta: PolarizationState(
        math.cos(a) * cmath.exp(1j * phi_h), math.sin(a) * cmath.exp(1j * phi_v), theta),
    st.floats(0.0, math.pi / 2), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), _POLARIZATIONS, _POLARIZATIONS)
def test_the_environment_does_not_read_theta(seed, pol_a, pol_b):
    # the polarization, theta included, is the open system, not the
    # environment: the table, and every factor and verdict built on it, is
    # bit for bit the same for any two inputs
    cfg = random_config(np.random.default_rng(seed))
    a, b = replace(cfg, pol=pol_a), replace(cfg, pol=pol_b)
    assert a.outside_terms == b.outside_terms == cfg.outside_terms
    start = cfg.window_out.t_start
    grid = np.linspace(start, start + 300.0, 301)
    for jp in (0, 1):
        np.testing.assert_array_equal(coherence_transfer(a, jp, grid),
                                      coherence_transfer(b, jp, grid))
        assert coherence_transfer(a, jp, start + 7.0) == coherence_transfer(b, jp, start + 7.0)
        assert maps.divisibility_scan(a, jp, grid) == maps.divisibility_scan(b, jp, grid)
    inside = np.linspace(0.0, start, 61)
    for location in LOCATIONS:
        times = inside if interferometer.LOCATION_STAGES[location][0] == "inside" else grid
        np.testing.assert_array_equal(coherence_factors(a, location, times),
                                      coherence_factors(b, location, times))

    def peak(c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an ambiguous peak warns alike for both
            try:
                return lambda_peak(c, auto_scan_range(c))
            except PeakNotFound as exc:
                return str(exc)

    assert peak(a) == peak(b)


# the coefficients c_i of each row of OutsideTerms.transfer_weights: port 0,
# port 1 and the port average, over the centres (d_0, d_1, a_1, a_2)
TRANSFER_ROWS = ((0.25, 0.25, 0.25, 0.25), (0.25, 0.25, -0.25, -0.25), (0.5, 0.5, 0.0, 0.0))


def _centres(cfg):
    terms = cfg.outside_terms
    return terms.d_0, terms.d_1, terms.a_1, terms.a_2


def per_term_transfer(cfg, row, t):
    """The transfer of one row as the sum of the four decoherence factors
    kappa_of_delay(b_i + s), each with its coefficient."""
    s = cfg.outside_terms.dn_out * effective_time(cfg.window_out, t)
    return sum(c * kappa_of_delay(cfg.dist, b + s)
               for c, b in zip(TRANSFER_ROWS[row], _centres(cfg)))


def transfer_rounding(cfg, row, t):
    """A bound on the difference between the table's transfer of one row and
    per_term_transfer, at laboratory time t.

    Both read the same rounded centres b_i and shift s = dn_out T, so only
    the operations after them count; u = eps / 2 is the unit roundoff, g_i
    = e^(-x_i^2 / 2) and |c_i| weighs every error of term i.  Both round
    x_i = b_i + s (|dx_i| <= u |x_i|), which moves a phase by u |mu x_i| and
    an exponent by u x_i^2.  The per-term sum then rounds mu x_i (u |mu
    x_i|) and x_i^2 / 2 (u x_i^2 / 2); cmath.exp adds at most 8 u, the
    three sums 4 u.  The table rounds mu b_i (u |mu b_i|) once per config,
    x_i^2 / 2 (u x_i^2 / 2) and mu s (u |mu s|) per time, and adds at most
    8 u in each of two cmath.exp, 2 u in math.exp, 2 u in w_i g_i, 4 u in
    the three sums and 4 u in the product by the phase: 28 u.  So the
    difference is at most sum_i |c_i| g_i (u (2 |mu x_i| + |mu b_i| +
    |mu s|) + 3 u x_i^2 + 40 u); rounded up to whole multiples of eps, and
    with an absolute floor for Gaussians that underflow into subnormals.
    """
    mu, s = abs(cfg.dist.mu), cfg.outside_terms.dn_out * effective_time(cfg.window_out, t)
    total = 0.0
    for c, b in zip(TRANSFER_ROWS[row], _centres(cfg)):
        x = b + s
        total += abs(c) * math.exp(-0.5 * x * x) * (mu * (2.0 * abs(x) + abs(b) + abs(s))
                                                     + 2.0 * x * x + 20.0)
    return np.finfo(float).eps * total + 1e-300


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1.0, 1e9))
def test_the_transfer_table_is_the_per_term_sum_within_its_rounding(seed, mu):
    # every outside coherence is one Gaussian sum of constant weights, read
    # by coherence_transfer (ports) and _closed_form (the port average), in
    # a float and an array form
    cfg = replace(random_config(np.random.default_rng(seed)), dist=FrequencyDistribution(mu))
    start = cfg.window_out.t_start
    grid = np.concatenate((np.linspace(start - 5.0, start + 300.0, 61),
                           np.random.default_rng(seed).uniform(start, start + 3000.0, 20)))
    eps = np.finfo(float).eps
    for row in (0, 1, 2):
        def table(t):
            if row == 2:
                return interferometer._closed_form(cfg, "outside", None, t)[0]
            return coherence_transfer(cfg, row, t)

        array = table(grid)
        for k, t in enumerate(grid.tolist()):
            scalar = table(t)
            assert type(scalar) is complex
            assert abs(scalar - per_term_transfer(cfg, row, t)) <= transfer_rounding(cfg, row, t)
            # the two forms differ only in their exp, cos and sin
            gaussians = sum(abs(c) * math.exp(-0.5 * (b + cfg.outside_terms.dn_out
                                                      * effective_time(cfg.window_out, t)) ** 2)
                            for c, b in zip(TRANSFER_ROWS[row], _centres(cfg)))
            assert abs(scalar - array[k]) <= 16.0 * eps * gaussians


@pytest.mark.parametrize("t", [1e300, 1.7e308])
def test_every_outside_form_is_zero_far_out_without_a_warning(t):
    # far out every Gaussian of the transfer underflows: (b + s)^2 overflows,
    # and at 1.7e308 so does mu s; the float forms gave 0 while the array
    # forms raised RuntimeWarnings (an error under the test settings)
    cfg = preset("dtau10")
    times = [t, 1.75e308 if t > 1e308 else 2.0 * t]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for jp in (0, 1):
            assert coherence_transfer(cfg, jp, t) == 0
            np.testing.assert_array_equal(coherence_transfer(cfg, jp, np.array(times)), 0)
            assert maps.divisibility_scan(cfg, jp, times) == []
        for location in ("path0_out", "path1_out", "joint_out"):
            np.testing.assert_array_equal(trace_distance_series(cfg, location, times).values, 0)
            np.testing.assert_array_equal(coherence_factors(cfg, location, times), 0)
        assert averaged_state_outside(cfg, t).coherence == 0
        np.testing.assert_array_equal(_lambda_of_total_time(cfg, np.array(times)), 0)
        np.testing.assert_array_equal(kappa_of_delay(cfg.dist, np.array(times)), 0)
        assert kappa_of_delay(cfg.dist, np.array(t)) == kappa_of_delay(cfg.dist, t) == 0
        with pytest.raises(PeakNotFound):
            lambda_peak(cfg, (t, t))


def test_a_warm_config_evaluates_only_the_transfer_terms(monkeypatch, baseline):
    kernel = _counted(monkeypatch, "kappa_of_delay", (core, channels, interferometer))
    sums = _counted(monkeypatch, "_transfer", (interferometer,))
    conditional_state_outside(baseline, 0, 500.0)
    # the table's two interference weights, once, and one Gaussian sum of the
    # port's transfer weights per state
    assert len(kernel) == 2 and len(sums) == 1
    for jp, t in ((0, 700.0), (1, 1665.0), (None, 900.0)):
        kernel.clear(), sums.clear()
        if jp is None:
            averaged_state_outside(baseline, t)
        else:
            conditional_state_outside(baseline, jp, t)
        assert kernel == [] and len(sums) == 1
        assert sums[0][1] is baseline.outside_terms.transfer_weights[2 if jp is None else jp]
    kernel.clear(), sums.clear()
    interference_kappas(baseline)
    path_probabilities(baseline)
    assert kernel == [] and sums == []
    # the |+>/|-> pair is an argument of the closed forms, not a config copy
    # with a table of its own: one Gaussian sum per location, no kernel call
    grid = np.linspace(60.0, 3000.0, 50)
    for row, location in enumerate(("path0_out", "path1_out", "joint_out")):
        sums.clear()
        coherence_factors(baseline, location, grid)
        assert kernel == [] and len(sums) == 1
        assert sums[0][1] is baseline.outside_terms.transfer_weights[row]


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
            assert value == 2.0 * kappa_of_delay(cfg.dist, d).real


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
    assert all(type(p) is float for p in path_probabilities(numpy_plus))
    with pytest.raises(
        ImpossibleOutcome,
        match=r"^output port 1 has probability 0\.0; cannot condition on it$",
    ):
        conditional_state_outside(numpy_plus, 1, 80.0)


def test_a_bright_port_without_h_v_coherence_has_exactly_zero_coherence():
    # equal-H port 1 takes no H light: its transfer f would be roundoff
    cfg = build_config(EQUAL_H)[0]
    times = np.arange(10.0, 3000.0, 1.0)
    assert np.all(coherence_factors(cfg, "path1_out", times) == 0.0)
    assert abs(coherence_factors(cfg, "path0_out", times[:1])[0]) > 0.5
    assert conditional_state_outside(cfg, 1, 11.0).coherence == 0.0


def test_a_nearly_dark_port_keeps_its_probability_and_a_unit_trace():
    # equal-H port 1 takes only V light, here |c_v|^2 = 1e-6 of the input:
    # its probability is its V weight times that, to the last digit, where
    # one minus port 0's probability was 9e-11 off and left its state's
    # trace outside [0, 1]
    pol = PolarizationState(math.cos(1e-3), math.sin(1e-3))
    cfg = replace(build_config(EQUAL_H)[0], pol=pol)
    weight_v = cfg.outside_terms.port_weights[1][1]
    assert path_probabilities(cfg)[1] == pytest.approx(weight_v * pol.population_v, rel=1e-15)
    state = conditional_state_outside(cfg, 1, 20.0)
    assert state.population_h == 0.0
    assert state.population_v == pytest.approx(1.0, abs=1e-15)


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


def _bits(value) -> bytes:
    """The bytes of every number in a kernel's result, as complex128."""
    if isinstance(value, DensityMatrix):
        value = (value.population_h, value.population_v, value.coherence)
    elif isinstance(value, maps.QuantumOperation):
        value = (value.h, value.v, value.g)
    return np.asarray(value, dtype=complex).tobytes()


def test_a_float32_time_is_evaluated_in_float64():
    # the times are exact in float32, so a float32 copy is the same time; at
    # 3500 the port-0 transfer is of order 1e-56, below float32's range
    cfg = preset("dtau10")
    grid = np.arange(60.0, 3000.0, 0.5)
    calls = {
        "coherence_transfer": lambda f: coherence_transfer(cfg, 0, f(3500.0)),
        "coherence_transfer array": lambda f: coherence_transfer(cfg, 1, f([60.0, 100.5, 3500.0])),
        "path_state_inside": lambda f: path_state_inside(cfg, 0, f(20.0)),
        "conditional_state_outside": lambda f: conditional_state_outside(cfg, 0, f(300.0)),
        "kraus_conditional": lambda f: maps.kraus_conditional(cfg, 0, f(300.0)),
        "propagator": lambda f: maps.propagator(cfg, 0, f(300.0), f(3500.0)),
        "divisibility_scan": lambda f: maps.divisibility_scan(cfg, 0, f(grid)),
    }
    for location in LOCATIONS:
        times = [60.0, 300.0, 3500.0] if location.endswith("_out") else [0.0, 20.0, 60.0]
        calls[f"coherence_factors {location}"] = (
            lambda f, location=location, times=times: coherence_factors(cfg, location, f(times)))
    for name, call in calls.items():
        want = call(lambda t: np.array(t, dtype=np.float64)[()])
        got = call(lambda t: np.array(t, dtype=np.float32)[()])
        if name == "divisibility_scan":
            assert got == want, name
        else:
            assert _bits(got) == _bits(want), name


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
            DensityMatrix(a, b, r)
            accepted = True
        except ValueError:
            accepted = False
        # the pair states coherence_factors checks, with these populations
        if accepted:
            check_density_matrices(a, b, np.array([0.0, r]))
        else:
            with pytest.raises(ValueError):
                check_density_matrices(a, b, np.array([0.0, r]))
    with pytest.raises(ValueError):
        check_density_matrices(0.5, 0.5, np.array([0.0, np.nan]))


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
        want_coh = 0.5 * kappa_of_delay(cfg.dist, delay)
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


def test_unnormalized_conditional_trace_is_port_probability(baseline):
    # the port's evolution before the division by its probability is its
    # Kraus map, applied to the input projector
    rho0 = pure_density(baseline.pol).matrix
    for jp in (0, 1):
        rho = maps.kraus_conditional(baseline, jp, 100.0).apply(rho0)
        assert np.trace(rho).real == pytest.approx(path_probabilities(baseline)[jp], abs=1e-12)


def test_averaged_outside_late_time_decay(baseline):
    ts = np.linspace(60.0, 4000.0, 2000)
    mods = [abs(averaged_state_outside(baseline, t).coherence) for t in ts]
    assert np.all(np.diff(mods) <= 1e-15)
    assert mods[-1] < 1e-12
