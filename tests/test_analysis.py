import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import preset, random_config
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzdephase import analysis
from mzdephase.analysis import (
    PEAK_FLOOR_TOL,
    PEAK_REACH,
    TraceDistanceSeries,
    auto_scan_range,
    backflow_intervals,
    blp_measure,
    estimate_interaction_time_difference,
    lambda_peak,
    trace_distance_series,
)
from mzdephase.core import (
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
)
from mzdephase.errors import EstimatorOutOfRegime, ImpossibleOutcome, PeakNotFound
from mzdephase.interferometer import (
    _lambda_of_total_time,
    coherence_factors,
    coherence_transfer,
    path_probabilities,
)

PEAK_TOTAL_TIME = (1.544 * 60.0 - 1.553 * 50.0) / 0.009  # 1665.55...


def index_offset_config(offset=0.002, duration=3000.0):
    """Equal interaction times, arm indices differing by a common offset; the
    output medium is the usual birefringent one."""
    arm0 = InteractionWindow(1.553, 1.553, 0.0, duration)
    arm1 = InteractionWindow(1.553 - offset, 1.553 - offset, 0.0, duration)
    out = InteractionWindow(1.553, 1.544, duration, np.inf)
    return InterferometerConfig(
        FrequencyDistribution(400.0), arm0, arm1, out, PolarizationState.plus()
    )


# ---------------------------------------------------------------------------
# series construction
# ---------------------------------------------------------------------------

def test_series_validation():
    with pytest.raises(ValueError):
        TraceDistanceSeries(np.array([0.0, 1.0]), np.array([0.5, 0.5]), "nowhere")
    with pytest.raises(ValueError):
        TraceDistanceSeries(np.array([0.0]), np.array([0.5]), "path0")
    with pytest.raises(ValueError):
        TraceDistanceSeries(np.array([1.0, 0.0]), np.array([0.5, 0.5]), "path0")
    with pytest.raises(ValueError):
        TraceDistanceSeries(np.array([0.0, 1.0]), np.array([0.5, 1.5]), "path0")


@pytest.mark.parametrize("times, values, message", [
    ([0.0, 1.0, 2.0], [0.1, np.nan, 0.5], r"^trace distances must lie in \[0, 1\]$"),
    ([0.0, 1.0], [np.nan, np.nan], r"^trace distances must lie in \[0, 1\]$"),
    ([0.0, np.nan], [0.5, 0.4], "^time nan is not finite$"),
    ([np.nan, 1.0, 2.0], [0.5, 0.4, 0.6], "^time nan is not finite$"),
    ([0.0, np.inf], [0.1, 0.5], "^time inf is not finite$"),
    ([np.inf, np.inf], [0.1, 0.5], "^time inf is not finite$"),
])
def test_series_validation_refuses_nan(times, values, message):
    # a NaN value made blp_measure 0 and backflow_intervals empty, a silent
    # verdict of no memory; a NaN or infinite time gave the interval
    # (0.0, nan) or (0.0, inf), or a numpy RuntimeWarning
    with pytest.raises(ValueError, match=message):
        TraceDistanceSeries(np.array(times), np.array(values), "path0")


@pytest.mark.parametrize("times, values, shapes", [
    ([[1.0], [2.0]], [[0.1], [0.2]], r"\(2, 1\) and \(2, 1\)"),
    ([[1.0, 2.0], [3.0, 4.0]], [[0.1, 0.2], [0.3, 0.4]], r"\(2, 2\) and \(2, 2\)"),
    ([1.0, 2.0], [[0.1], [0.2]], r"\(2,\) and \(2, 1\)"),
    ([1.0, 2.0], 0.1, r"\(2,\) and \(\)"),
], ids=["column", "square", "values-column", "values-scalar"])
def test_series_refuses_times_or_values_not_1d(times, values, shapes):
    # such a series was built, and backflow_intervals then raised numpy's
    # ambiguous truth value or a failed scalar conversion
    with pytest.raises(ValueError, match=f"^times and values must be 1-D, got shapes {shapes}$"):
        TraceDistanceSeries(np.array(times), np.array(values), "path0")


@pytest.mark.parametrize("location, grid, shape", [
    ("path0_out", [[60.0], [70.0]], r"\(2, 1\)"),
    ("path0", [[6.0], [7.0]], r"\(2, 1\)"),
    ("joint_out", [[60.0, 70.0], [80.0, 90.0]], r"\(2, 2\)"),
    ("path0_out", 60.0, r"\(\)"),
], ids=["column-outside", "column-inside", "square", "scalar"])
def test_series_refuses_a_grid_not_1d_before_any_point(baseline, location, grid, shape):
    # the per-point loop ended in numpy's or Python's own error instead
    with pytest.raises(ValueError, match=f"^grid must be 1-D, got shape {shape}$"):
        trace_distance_series(baseline, location, grid)


def test_pathwise_series_equals_kappa_modulus_and_is_monotone(baseline):
    from mzdephase.channels import single_path_kappa

    grid = np.linspace(0.0, 60.0, 201)
    series = trace_distance_series(baseline, "path0", grid)
    want = np.abs(single_path_kappa(baseline.window0, baseline.dist, grid))
    np.testing.assert_allclose(series.values, want, atol=1e-12)
    assert np.all(np.diff(series.values) <= 1e-15)
    assert series.values[0] == pytest.approx(1.0, abs=1e-15)


def test_output_series_equals_f_over_probability(baseline):
    grid = np.linspace(60.0, 2800.0, 500)
    for jp, location in ((0, "path0_out"), (1, "path1_out")):
        series = trace_distance_series(baseline, location, grid)
        want = np.abs(coherence_transfer(baseline, jp, grid)) / path_probabilities(baseline)[jp]
        np.testing.assert_allclose(series.values, want, atol=1e-12)


def test_joint_out_series_monotone_for_full_interference():
    cfg = preset("dtau0")
    grid = np.linspace(60.0, 1500.0, 800)
    series = trace_distance_series(cfg, "joint_out", grid)
    assert backflow_intervals(series) == []


def test_series_propagates_dark_port():
    cfg = preset("dtau0")
    with pytest.raises(ImpossibleOutcome):
        trace_distance_series(cfg, "path1_out", np.linspace(60.0, 200.0, 10))


def test_output_series_recoherence_maximum(baseline):
    grid = 60.0 + np.arange(0.0, 2941.0, 1.0)
    series = trace_distance_series(baseline, "path0_out", grid)
    revival = series.values[grid >= 460.0]  # past the exit transient
    assert np.max(revival) == pytest.approx(0.5, abs=0.01)


# ---------------------------------------------------------------------------
# backflow intervals and BLP quantification
# ---------------------------------------------------------------------------

def test_backflow_empty_for_decreasing_series():
    s = TraceDistanceSeries(np.arange(4.0), np.array([1.0, 0.8, 0.5, 0.1]), "path0")
    assert backflow_intervals(s) == []
    assert blp_measure(s) == 0.0


def test_backflow_single_rise():
    s = TraceDistanceSeries(
        np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.4, 0.6, 0.2]), "joint_inside"
    )
    assert backflow_intervals(s) == [(1.0, 2.0)]
    assert blp_measure(s) == pytest.approx(0.2)


def test_backflow_brackets_recoherence_peak(baseline):
    grid = 60.0 + np.arange(0.0, 2941.0, 1.0)
    series = trace_distance_series(baseline, "path0_out", grid)
    intervals = backflow_intervals(series)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo < 60.0 + PEAK_TOTAL_TIME <= hi + 1.0


def test_blp_asymmetric_memory():
    cfg = preset("dtau1p5")
    grid = np.linspace(60.0, 1200.0, 2000)
    blp = {
        loc: blp_measure(trace_distance_series(cfg, loc, grid))
        for loc in ("path0_out", "path1_out", "joint_out")
    }
    assert blp["path0_out"] > 1e-3
    assert blp["path1_out"] == 0.0
    assert blp["joint_out"] == 0.0


def test_blp_stable_under_grid_refinement(baseline):
    # refinement shifts the sampled extrema by O(step^2); the bound reflects
    # that discretization, far above the rise tolerance itself
    coarse = trace_distance_series(baseline, "path0_out", np.linspace(60.0, 3000.0, 2000))
    fine = trace_distance_series(baseline, "path0_out", np.linspace(60.0, 3000.0, 4000))
    assert blp_measure(coarse) == pytest.approx(blp_measure(fine), abs=1e-4)


# ---------------------------------------------------------------------------
# recoherence peak location
# ---------------------------------------------------------------------------

def test_peak_at_zero_for_symmetric_arms():
    w = InteractionWindow(1.553, 1.544, 0.0, 60.0)
    out = InteractionWindow(1.553, 1.544, 60.0, np.inf)
    cfg = InterferometerConfig(
        FrequencyDistribution(400.0), w, w, out, PolarizationState.plus()
    )
    t_max, peak = lambda_peak(cfg, (60.0, 1000.0))
    assert t_max == 0.0
    assert peak == pytest.approx(2.0 * np.exp(-0.5 * (0.009 * 60.0) ** 2), rel=1e-6)


def test_peak_baseline_location_and_height(baseline):
    t_max, peak = lambda_peak(baseline, (60.0, 3000.0))
    assert t_max == pytest.approx(PEAK_TOTAL_TIME, abs=0.01)
    assert peak == pytest.approx(1.0, abs=1e-6)


def test_peak_invariant_under_arm_relabeling(baseline):
    swapped = InterferometerConfig(
        baseline.dist,
        baseline.window1,
        baseline.window0,
        baseline.window_out,
        baseline.pol,
    )
    assert lambda_peak(swapped, (60.0, 3000.0)) == lambda_peak(baseline, (60.0, 3000.0))


def test_peak_not_found_when_signal_dead(baseline):
    # output coupling never opens: the transfer stays at its dead exit value
    frozen_out = InteractionWindow(1.553, 1.544, 60.0, 60.0)
    cfg = InterferometerConfig(
        baseline.dist, baseline.window0, baseline.window1, frozen_out, baseline.pol
    )
    with pytest.raises(PeakNotFound):
        lambda_peak(cfg, (60.0, 60.0))


def test_peak_of_dtau10_is_where_its_first_cross_delay_cancels(baseline):
    # x1 = n0_h t0 - n1_v t1 + dn_out T vanishes there; the other cross
    # delay is then 31, so |Lambda| is one to the last bit
    a1 = 1.553 * 50.0 - 1.544 * 60.0
    t_max, peak = lambda_peak(baseline, (60.0, 3000.0))
    assert abs(t_max - -a1 / (1.553 - 1.544)) <= 1e-9
    assert t_max == 1665.5555555555757
    assert peak == pytest.approx(1.0, abs=1e-15)


def test_far_humps_are_found_where_the_plain_slope_underflows(baseline):
    # arms of 100 and 20: the cross delays start at 124.4 and -123.3, so
    # |Lambda|^2 and its plain slope underflow to exactly 0 between the two
    # humps; the scaled slope keeps its sign there, and the hump around the
    # second cancellation point is found
    cfg = replace(
        baseline,
        window0=replace(baseline.window0, t_stop=100.0),
        window1=replace(baseline.window1, t_stop=20.0),
        window_out=replace(baseline.window_out, t_start=100.0),
    )
    assert lambda_peak(cfg, auto_scan_range(cfg)) == (13704.4444444446, 1.0)


@pytest.mark.parametrize("mu", [1e12, 1e300])
def test_peak_search_takes_a_mu_of_any_size(baseline, mu):
    # mu enters |Lambda| only through a constant phase, so the peak stays put
    cfg = InterferometerConfig(
        FrequencyDistribution(mu), baseline.window0, baseline.window1,
        baseline.window_out, baseline.pol,
    )
    t_max, _ = lambda_peak(cfg, (60.0, 3000.0))
    assert t_max == pytest.approx(lambda_peak(baseline, (60.0, 3000.0))[0], rel=1e-12)


@pytest.mark.parametrize("scan_range", [(100.0, 60.0), (60.0, math.nan), (math.nan, 100.0)])
def test_peak_search_refuses_a_scan_range_not_ordered(baseline, scan_range):
    # a NaN end used to read as a dead signal (PeakNotFound)
    with pytest.raises(ValueError, match=r"^scan_range: \[.*\] is not ordered$"):
        lambda_peak(baseline, scan_range)


def test_peak_search_takes_a_scan_range_of_any_length(baseline):
    # ~4e19 steps of 1/40 of the width 1/0.009, but the humps are bisected
    # only within a fixed reach of |Lambda|'s centre
    assert lambda_peak(baseline, (60.0, 1e20)) == lambda_peak(baseline, auto_scan_range(baseline))


@pytest.mark.parametrize("mu", [6e306, 1e307])
def test_peak_search_refuses_a_mu_whose_cross_phase_overflows(baseline, mu):
    # mu (a_2 - a_1) is infinite: C = cos(mu (a_2 - a_1)) has no value
    cfg = replace(baseline, dist=FrequencyDistribution(mu))
    with pytest.raises(ValueError, match=r"^mu .* makes the phase mu \(a_2 - a_1\) overflow$"):
        lambda_peak(cfg, (60.0, 3000.0))


def test_a_mu_whose_interference_phase_overflows_is_named():
    # mu times the dtau10 delay n_h0 tau_0 - n_h1 tau_1 = -15.53 is beyond the
    # float range: every reader of cfg.outside_terms raised a bare math domain
    # error
    cfg = replace(preset("dtau10"), dist=FrequencyDistribution(1e308))
    want = r"^mu 1e\+308 makes the phase mu \(n_h0 tau_0 - n_h1 tau_1\) overflow$"
    for call in (lambda: path_probabilities(cfg),
                 lambda: coherence_factors(cfg, "path0_out", [60.0, 100.0]),
                 lambda: lambda_peak(cfg, (60.0, 3000.0))):
        with pytest.raises(ValueError, match=want):
            call()


@pytest.mark.parametrize("d_0, x_h, x_v, name", [
    (2.0, 0.0, 0.0, "dn_0 tau_0"),
    (1.5, 0.0, 0.4, "dn_1 tau_1"),
    (1.5, 0.5, 0.5, "n_h0 tau_0 - n_v1 tau_1"),
    (1.5, -0.5, -0.5, "n_h1 tau_1 - n_v0 tau_0"),
], ids=["d_0", "d_1", "a_1", "a_2"])
def test_a_centre_whose_phase_overflows_is_named(d_0, x_h, x_v, name):
    # arms of unit duration with these birefringence and interference
    # delays; mu times every delay checked before is finite, and mu times
    # the named centre of the transfer sum is not: its term used to be 0
    # far from its centre and a bare math domain error near it
    n_v0 = 2.0
    window0 = InteractionWindow(n_v0 + d_0, n_v0, 0.0, 1.0)
    window1 = InteractionWindow(n_v0 + d_0 - x_h, n_v0 - x_v, 0.0, 1.0)
    cfg = InterferometerConfig(FrequencyDistribution(1e308), window0, window1,
                               InteractionWindow(1.553, 1.544, 1.0, math.inf),
                               PolarizationState.plus())
    want = rf"^mu 1e\+308 makes the phase mu \({name}\) overflow$"
    for call in (lambda: path_probabilities(cfg),
                 lambda: coherence_transfer(cfg, 0, 1e5),
                 lambda: trace_distance_series(cfg, "joint_out", [1.0, 1e5])):
        with pytest.raises(ValueError, match=want):
            call()


@pytest.mark.parametrize("arm, window, name", [
    ("window0", InteractionWindow(1e307, 1.544, 0.0, 50.0), r"n_h0 tau_0 = 1e\+307 \* 50"),
    ("window1", InteractionWindow(1.553, -1e307, 0.0, 60.0), r"n_v1 tau_1 = -1e\+307 \* 60"),
], ids=["arm0", "arm1"])
def test_an_arm_delay_that_overflows_is_named_before_mu(arm, window, name):
    # the infinite delay made the interference phase overflow, and mu was
    # blamed for it
    cfg = replace(preset("dtau10"), **{arm: window})
    for call in (lambda: path_probabilities(cfg), lambda: lambda_peak(cfg, (60.0, 3000.0))):
        with pytest.raises(ValueError, match=f"^the arm delay {name} overflows$"):
            call()


def test_each_search_takes_at_most_130_slope_evaluations(baseline, monkeypatch):
    # at most two bisections down to adjacent floats, each over the reach R
    # of one side of the centre, whatever the range's length; none for one
    # hump, such as that of arms with swapped indices, centred at T_c = 0,
    # towards which a bisection would halve its way through the subnormals
    calls = []
    slope = analysis._scaled_slope
    monkeypatch.setattr(
        analysis, "_scaled_slope", lambda *args: calls.append(args) or slope(*args)
    )
    swapped = replace(baseline, window1=InteractionWindow(1.544, 1.553, 0.0, 50.0),
                      window0=InteractionWindow(1.553, 1.544, 0.0, 50.0))
    t_max, peak = lambda_peak(swapped, (60.0, 3000.0))
    assert (math.copysign(1.0, t_max), t_max, peak, calls) == (1.0, 0.0, 2.0, [])
    searches = [(baseline, (60.0, 1e20))]
    for seed in range(20):
        cfg = random_config(np.random.default_rng(seed))
        searches += [(cfg, auto_scan_range(cfg)), (cfg, (60.0, 1e20))]
    counts = []
    for cfg, scan_range in searches:
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                lambda_peak(cfg, scan_range)
            except PeakNotFound:
                pass
        counts.append(len(calls))
    assert 0 < counts[0] and max(counts) <= 130


@pytest.mark.parametrize("seed", [99, 237])
def test_one_hump_near_the_range_start_raises_no_warning(seed):
    # 2 d^2 <= 1 + C: |Lambda| rises once and falls once, so no other point
    # of the range competes with its top at the centre T_c, where |Lambda|^2
    # is 2 e^(-d^2) (1 + C)
    cfg = random_config(np.random.default_rng(seed))
    terms = cfg.outside_terms
    half = abs(terms.a_2 - terms.a_1) / 2.0
    cos_mu = math.cos(cfg.dist.mu * (terms.a_2 - terms.a_1))
    assert 2.0 * half**2 <= 1.0 + cos_mu
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_max, peak = lambda_peak(cfg, auto_scan_range(cfg))
    centre = -(terms.a_1 + terms.a_2) / (2.0 * terms.dn_out)
    assert t_max == pytest.approx(centre, rel=1e-9)
    assert peak == pytest.approx(math.sqrt(2.0 * math.exp(-half**2) * (1.0 + cos_mu)), abs=1e-12)


def test_mirror_humps_of_equal_height_warn_and_the_earlier_wins():
    # seed 1526: two humps at total times 49.97 and 147.16, mirror images
    # about the centre T_c = 98.56, both inside the range
    cfg = random_config(np.random.default_rng(1526))
    with pytest.warns(UserWarning, match="second candidate at total time 147.158 reaches"):
        t_max, peak = lambda_peak(cfg, auto_scan_range(cfg))
    assert t_max == pytest.approx(49.97, abs=0.01)
    assert peak == pytest.approx(1.11653, abs=1e-5)


def test_peak_of_two_humps_of_one_term_pair_is_the_higher_one():
    # cross delays differing by between sqrt(2) and 2 (here 1.73): |Lambda|
    # has two humps, while the sum of the term moduli has one between them
    doc = ((1.4806799882369013, 1.5, 2.0), (1.509765625, 1.5, 1.4375), (1.515625, 1.5), 1.0, 0.0)
    t_max, peak = lambda_peak(config_of(doc), (2.0, 695.1015625))
    assert peak >= 1.0228531563
    assert t_max == pytest.approx(44.7384, abs=1e-3)


def reference_abs_lambda(doc, total):
    """|Lambda| at total outside times, from the config numbers: the sum of
    exp(i mu x - x^2 / 2) over the two cross delays x; the input's theta
    is not part of it."""
    (n0h, n0v, t0), (n1h, n1v, t1), (nh, nv), mu, _ = doc
    total = np.asarray(total, dtype=float)
    return np.abs(sum(
        np.exp(1j * (mu * x) - 0.5 * x**2)
        for x in (n0h * t0 - n1v * t1 + (nh - nv) * total,
                  n1h * t1 - n0v * t0 + (nh - nv) * total)
    ))


def abs_lambda_rounding(doc, total):
    """A bound on the rounding error of |Lambda| at total time T, as
    lambda_peak and reference_abs_lambda evaluate it: x_i = a_i + dn T, then
    k_i = exp(i mu x_i - x_i^2 / 2), then |k_1 + k_2|.

    Every evaluation reads the same rounded a_i and dn, so only what depends
    on T counts; u = eps / 2 is the unit roundoff.  The product dn T and the
    sum x_i are rounded once each: |dx_i| <= u (|x_i| + |dn T|).  The phase
    adds mu dx_i and u |mu x_i|, so |dphase_i| <= 2 u |mu| (|x_i| + |dn T|);
    the exponent is off by at most 2 u |x_i| (|x_i| + |dn T|).  A phase
    error moves |k_1 + k_2| by at most min(|k_1|, |k_2|) times it, an
    exponent error by |k_i| times it.  exp, cos, sin, the two products by
    exp, the sum and abs are seven operations of at most one ulp (2 u) each,
    14 u |k_i|.  So c = 8 in units of eps, 16 u, covers every coefficient.
    """
    (n0h, n0v, t0), (n1h, n1v, t1), (nh, nv), mu, _ = doc
    dn = nh - nv
    shift = abs(dn * total)
    xs = [n0h * t0 - n1v * t1 + dn * total, n1h * t1 - n0v * t0 + dn * total]
    ks = [math.exp(-0.5 * x * x) for x in xs]
    phase = sum(abs(mu) * (abs(x) + shift) for x in xs)
    exponent = sum(k * (1.0 + abs(x) * (abs(x) + shift)) for k, x in zip(ks, xs))
    return 8.0 * np.finfo(float).eps * (min(ks) * phase + exponent)


def reference_scan(doc, lo, hi):
    """|Lambda| over the whole [lo, hi] in total time, on a uniform grid of
    200,001 points (one point for a range of no width), and the grid step."""
    if hi == lo:
        return np.array([lo]), np.array([float(reference_abs_lambda(doc, lo))]), np.inf
    grid = np.linspace(lo, hi, 200_001)
    return grid, reference_abs_lambda(doc, grid), grid[1] - grid[0]


@st.composite
def peak_searches(draw):
    """A config, as the numbers the references read, and a scan range in
    laboratory times; the arms' delays may be long enough for the estimator
    regime, or short enough for strong interference."""
    def indices():
        n_v = draw(st.floats(1.4, 1.6))
        return n_v + draw(st.floats(0.005, 0.03)) * draw(st.sampled_from([-1, 1])), n_v

    arms = [(*indices(), draw(st.floats(0.0, 40.0))) for _ in range(2)]
    out = indices()
    mu = draw(st.one_of(st.just(0.0), st.floats(1.0, 500.0)))
    theta = draw(st.floats(-np.pi, np.pi))
    doc = (arms[0], arms[1], out, mu, theta)
    start = max(arms[0][2], arms[1][2])
    (n0h, n0v, t0), (n1h, n1v, t1) = arms
    reach = (max(abs(n0h * t0 - n1v * t1), abs(n1h * t1 - n0v * t0)) + 10.0) / abs(out[0] - out[1])
    t_lo = start + draw(st.floats(-0.1, 0.6)) * reach
    t_hi = t_lo + draw(st.floats(0.0, 1.0)) * reach
    return doc, (t_lo, t_hi)


def config_of(doc):
    (n0h, n0v, t0), (n1h, n1v, t1), (nh, nv), mu, theta = doc
    s = 1.0 / np.sqrt(2.0)
    return InterferometerConfig(
        FrequencyDistribution(mu),
        InteractionWindow(n0h, n0v, 0.0, t0),
        InteractionWindow(n1h, n1v, 0.0, t1),
        InteractionWindow(nh, nv, max(t0, t1), np.inf),
        PolarizationState(s, s, theta),
    )


@settings(max_examples=150, deadline=None)
@given(peak_searches())
# |Lambda| near this peak carries rounding noise of about 2e-14: the grid's
# maximum lies 4.8e-15 above the bisected peak
@example((
    ((1.455913121702718, 1.4489794785951835, 27.241408536723878),
     (1.5907748069892065, 1.5798508422042405, 24.63790407221596),
     (1.515625, 1.5), 146.33956434775138, 0.0),
    (31.364382223882814, 551.2917764427767),
))
def test_bisected_peak_is_at_least_the_fine_grid_maximum(search):
    doc, (t_lo, t_hi) = search
    cfg = config_of(doc)
    start = cfg.window_out.t_start
    lo, hi = max(t_lo, start) - start, max(t_hi, start) - start
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            t_max, peak = lambda_peak(cfg, (t_lo, t_hi))
        except PeakNotFound:
            t_max, peak = None, 0.0
    grid, value, step = reference_scan(doc, lo, hi)
    best = float(value.max())
    if t_max is None:
        assert best < PEAK_FLOOR_TOL + 1e-15
        return
    # both evaluations round: the grid's maximum may exceed the true peak's
    # value by their two errors; at mu <= 500 that stays far below the 1e-9
    # by which missed peaks fell short
    j = int(np.argmax(value))
    tol = abs_lambda_rounding(doc, t_max) + abs_lambda_rounding(doc, float(grid[j]))
    assert tol < 1e-11
    assert peak >= best - tol
    assert peak == pytest.approx(float(reference_abs_lambda(doc, t_max)), abs=1e-15)

    # the grid's argmax locates the peak to one step where it is unique: the
    # maximum is not flat on the grid, and every other local maximum of the
    # grid stays clearly below it; that margin covers how far a grid point
    # may miss the top of a hump of curvature up to 2 dn^2
    where = float(grid[j])
    flat = any(0 <= i < len(value) and value[i] >= value[j] for i in (j - 1, j + 1))
    dn = doc[2][0] - doc[2][1]
    margin = 4.0 * (dn * step) ** 2 + 1e-12
    padded = np.concatenate(([-np.inf], value, [-np.inf]))
    maxima = np.flatnonzero((value > padded[:-2]) & (value >= padded[2:]))
    rivals = [float(value[i]) for i in maxima if abs(float(grid[i]) - where) > 2.0 * step]
    if not flat and all(r < best - margin for r in rivals):
        assert abs(t_max - where) <= step


@settings(max_examples=60, deadline=None)
@given(peak_searches(), st.floats(0.0, 1.0))
def test_abs_lambda_is_mirror_symmetric_and_unimodal_about_its_centre(search, where):
    doc, _ = search
    cfg = config_of(doc)
    terms = cfg.outside_terms
    dn = abs(terms.dn_out)
    # the centre T_c of the symmetry and the reach R of each side
    centre = -(terms.a_1 + terms.a_2) / (2.0 * terms.dn_out)
    reach = (abs(terms.a_2 - terms.a_1) / 2.0 + PEAK_REACH) / dn

    # |Lambda(T_c + r)| = |Lambda(T_c - r)| up to the rounding of both values,
    # and of T_c and T_c +- r (4 eps |T_c| + 2 eps r at most), which moves
    # |Lambda| at a slope of at most 2 e^(-1/2) |dn_out| < 2 |dn_out|
    r = where * reach
    ts = (centre + r, centre - r)
    up, down = (abs(_lambda_of_total_time(cfg, t)) for t in ts)
    shift = 2.0 * dn * np.finfo(float).eps * (4.0 * abs(centre) + 2.0 * r)
    assert up == pytest.approx(down, abs=sum(abs_lambda_rounding(doc, t) for t in ts) + shift)

    # on each side of T_c, a dense scan rises and then falls, up to rounding
    steps = np.linspace(0.0, reach, 2001)
    for side in (1.0, -1.0):
        grid = centre + side * steps
        value = np.abs(_lambda_of_total_time(cfg, grid))
        tol = np.array([abs_lambda_rounding(doc, t) for t in grid.tolist()])
        slack = tol[1:] + tol[:-1]
        top = int(np.argmax(value))
        assert np.all(np.diff(value[: top + 1]) >= -slack[:top])
        assert np.all(np.diff(value[top:]) <= slack[top:])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_closed_form_slope_matches_central_differences(seed, where):
    cfg = random_config(np.random.default_rng(seed))
    dn = cfg.window_out.delta_n
    a1, a2 = cfg.outside_terms.a_1, cfg.outside_terms.a_2
    total = where * (max(abs(a1), abs(a2)) + 5.0) / abs(dn)
    # a step of 1e-4 in the cross delays: truncation ~1e-8, phase rounding ~1e-8
    step = 1e-4 / abs(dn)
    up, down = (abs(_lambda_of_total_time(cfg, total + s)) ** 2 for s in (step, -step))
    # the slope is scaled by e^(min(x_1^2, x_2^2)); undo that
    x1, x2 = a1 + dn * total, a2 + dn * total
    cos_mu = math.cos(cfg.dist.mu * (a2 - a1))
    slope = analysis._scaled_slope(cfg.outside_terms, cos_mu, total) * math.exp(-min(x1**2, x2**2))
    assert slope / dn == pytest.approx((up - down) / (2.0 * step) / dn, abs=1e-6)


# ---------------------------------------------------------------------------
# interaction-difference estimation
# ---------------------------------------------------------------------------

def test_estimator_baseline(baseline):
    est = estimate_interaction_time_difference(baseline)
    assert est == pytest.approx(9.65228423251261, rel=1e-6)
    assert abs(est - 10.0) / 10.0 < 0.05


def test_estimator_rejects_full_interference():
    with pytest.raises(EstimatorOutOfRegime):
        estimate_interaction_time_difference(preset("dtau0"))


def test_estimator_rejects_partial_interference():
    with pytest.raises(EstimatorOutOfRegime):
        estimate_interaction_time_difference(preset("dtau0p5"))


def test_estimator_index_difference_variant():
    cfg = index_offset_config(offset=0.002, duration=3000.0)
    est = estimate_interaction_time_difference(cfg)
    truth = 0.002 * 3000.0 / 1.553
    assert abs(est - truth) / truth < 0.05
