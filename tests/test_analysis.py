import numpy as np
import pytest
from conftest import preset

from mzdephase.analysis import (
    TraceDistanceSeries,
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
from mzdephase.interferometer import coherence_transfer, path_probabilities

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


def test_pathwise_series_equals_kappa_modulus_and_is_monotone(baseline):
    from mzdephase.channels import single_path_kappa

    grid = np.linspace(0.0, 60.0, 201)
    series = trace_distance_series(baseline, "path0", grid)
    want = np.abs(single_path_kappa(baseline.window0, baseline.dist, 0.0, grid))
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


@pytest.mark.parametrize("mu", [1e12, 1e300])
def test_peak_search_refuses_a_mu_before_allocating(baseline, mu):
    # ~2e13 fine points per candidate at mu = 1e12: far beyond memory
    cfg = InterferometerConfig(
        FrequencyDistribution(mu), baseline.window0, baseline.window1,
        baseline.window_out, baseline.pol,
    )
    with pytest.raises(ValueError, match="^mu: "):
        lambda_peak(cfg, (60.0, 3000.0))


def test_peak_search_refuses_a_scan_range_before_allocating(baseline):
    # ~4e19 envelope steps of 1/40 of its width 1/0.009
    with pytest.raises(ValueError, match=r"^scan_range: \[60, 1e\+20\] "):
        lambda_peak(baseline, (60.0, 1e20))


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
