"""Trace-distance dynamics, information backflow quantification and
optical-path-difference estimation from output-side memory effects."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._intervals import RISE_TOL, merge_rising_steps
from .core import (
    DensityMatrix,
    InterferometerConfig,
    PolarizationState,
    effective_time,
    trace_distance,
)
from .errors import EstimatorOutOfRegime, PeakNotFound
from .interferometer import (
    LOCATION_STAGES,
    _check_times,
    _lambda_of_total_time,
    _lambda_slope,
    averaged_state_outside,
    conditional_state_outside,
    interference_kappas,
    joint_state_inside,
    path_state_inside,
)

LOCATIONS = tuple(LOCATION_STAGES)

# estimator regime gate: residual interference weights must stay below this
INTERFERENCE_TOL = 1e-6

# recoherence signals below this floor are treated as absent
PEAK_FLOOR_TOL = 1e-12

# |Lambda| <= e^{-x1^2/2} + e^{-x2^2/2}, which is below PEAK_FLOOR_TOL once
# both cross delays x_i exceed this in modulus
PEAK_REACH = math.sqrt(2.0 * math.log(2.0 / PEAK_FLOOR_TOL))


@dataclass(frozen=True)
class TraceDistanceSeries:
    """Trace distance of the evolved maximally coherent pair on a time grid."""

    times: np.ndarray
    values: np.ndarray
    location: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if self.location not in LOCATIONS:
            raise ValueError(f"unknown location {self.location!r}")
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError(
                f"times and values must be 1-D, got shapes {times.shape} and {values.shape}"
            )
        if len(times) != len(values) or len(times) < 2:
            raise ValueError("times and values must have equal length >= 2")
        _check_times(times)
        # each check is written so that NaN fails it
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (values.min() >= -1e-12 and values.max() <= 1.0 + 1e-12):
            raise ValueError("trace distances must lie in [0, 1]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _state_at(cfg: InterferometerConfig, location: str, t: float) -> DensityMatrix:
    if location not in LOCATION_STAGES:
        raise ValueError(f"unknown location {location!r}")
    stage, index = LOCATION_STAGES[location]
    if stage == "inside":
        if index is None:
            return joint_state_inside(cfg, t)
        return path_state_inside(cfg, index, t)
    if index is None:
        return averaged_state_outside(cfg, t)
    return conditional_state_outside(cfg, index, t)


def trace_distance_series(
    cfg: InterferometerConfig, location: str, grid
) -> TraceDistanceSeries:
    """Pairwise trace distance of the evolved |+> / |-> pair at each grid time.

    The input pair replaces the configured polarization; conditioning or
    averaging is applied according to the location.  Dark-port locations
    raise ImpossibleOutcome, and a grid that is not 1-D raises ValueError
    naming its shape.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-D, got shape {grid.shape}")
    cfg_p = replace(cfg, pol=PolarizationState.plus())
    cfg_m = replace(cfg, pol=PolarizationState.minus())
    values = [trace_distance(_state_at(cfg_p, location, t), _state_at(cfg_m, location, t))
              for t in grid.tolist()]
    return TraceDistanceSeries(grid, values, location)


def backflow_intervals(series: TraceDistanceSeries) -> list[tuple[float, float]]:
    """Maximal grid intervals on which the trace distance rises.

    A step counts when the increase between consecutive grid points exceeds
    ``RISE_TOL``; adjacent rising steps are merged.
    """
    rising = np.diff(series.values) > RISE_TOL
    return merge_rising_steps(series.times, rising)


def blp_measure(series: TraceDistanceSeries) -> float:
    """Total information backflow: the sum of trace-distance increments that
    exceed ``RISE_TOL``.  Zero iff no backflow above tolerance."""
    inc = np.diff(series.values)
    return float(inc[inc > RISE_TOL].sum())


def _slope_root(slope, a: float, b: float) -> float:
    """Where |Lambda| stops rising in [a, b]: when ``slope``, d|Lambda|^2/dT,
    is positive at a and not at b, the last time with a positive slope,
    bisected on its sign down to adjacent floats; otherwise no such root is
    bracketed, and a."""
    if not slope(a) > 0.0 >= slope(b):
        return a
    while True:
        m = a + 0.5 * (b - a)
        if not a < m < b:
            return a
        if slope(m) > 0.0:
            a = m
        else:
            b = m


def lambda_peak(
    cfg: InterferometerConfig, scan_range: tuple[float, float]
) -> tuple[float, float]:
    """Locate the global maximum of the cross-term transfer modulus.

    Returns (t_max, peak_value) where t_max is the total outside interaction
    time at the maximum of |Lambda|.  |Lambda| can reach ``PEAK_FLOOR_TOL``
    only in the two windows of total time where a cross delay x_i is at most
    ``PEAK_REACH`` in modulus; a coarse scan of |Lambda| over each window,
    clipped to the range, brackets the candidates: its strict local maxima
    and the range ends.  |Lambda|^2 is a sum of Gaussians in T whose mean
    frequency enters only through a constant phase, so it does not oscillate
    in T: in each bracket the candidate is the root of the closed-form slope
    d|Lambda|^2/dT, found by bisection down to adjacent floats, or a bracket
    end where |Lambda| is larger.  Raises PeakNotFound when the signal stays
    below ``PEAK_FLOOR_TOL`` over the whole range; warns when a second,
    well-separated candidate comes within 1% of the global maximum.  Raises
    ValueError, its message led by ``scan_range``, for a range not ordered.
    """
    t_lo, t_hi = scan_range
    if not t_lo <= t_hi:  # NaN fails it too
        raise ValueError(f"scan_range: [{t_lo:g}, {t_hi:g}] is not ordered")
    lo = float(effective_time(cfg.window_out, t_lo))
    hi = float(effective_time(cfg.window_out, t_hi))
    terms = cfg.outside_terms
    dn_out = terms.dn_out

    if dn_out == 0.0 or hi == lo:
        peak = float(np.abs(_lambda_of_total_time(cfg, np.array([lo]))[0]))
        if peak < PEAK_FLOOR_TOL:
            raise PeakNotFound("cross-term transfer below floor over the scan range")
        return lo, peak

    # coarse stage at 1/40 of the width 1/|dn'| of each term of |Lambda|
    coarse_step = min(1.0 / abs(dn_out) / 40.0, (hi - lo) / 100.0)
    slope = _lambda_slope(cfg)
    best = []  # (peak value, total time) per candidate
    for a_i in (terms.a_1, terms.a_2):
        ends = sorted(((-PEAK_REACH - a_i) / dn_out, (PEAK_REACH - a_i) / dn_out))
        w_lo, w_hi = max(lo, ends[0]), min(hi, ends[1])
        if not w_lo <= w_hi:  # the window misses the range
            continue
        coarse = np.append(np.arange(w_lo, w_hi, coarse_step), w_hi)
        modulus = np.abs(_lambda_of_total_time(cfg, coarse))
        # strict on the left: where |Lambda| underflowed to a flat 0, no
        # candidates.  A window end inside the range is none either: its own
        # term is below the floor there, so a hump of the other term there
        # peaks inside the other window
        interior = (modulus[1:-1] > modulus[:-2]) & (modulus[1:-1] >= modulus[2:])
        candidates = [t for t in (w_lo, w_hi) if t in (lo, hi)]
        for c in candidates + coarse[1:-1][interior].tolist():
            a, b = max(lo, c - coarse_step), min(hi, c + coarse_step)
            best.append(max(
                (abs(_lambda_of_total_time(cfg, t)), t) for t in (a, _slope_root(slope, a, b), b)
            ))

    best.sort(reverse=True)
    if not best or best[0][0] < PEAK_FLOOR_TOL:
        raise PeakNotFound("cross-term transfer below floor over the scan range")
    peak_value, t_max = best[0]
    for value, where in best[1:]:
        separated = abs(where - t_max) > 2.0 * coarse_step
        if separated and value > 0.99 * peak_value:
            warnings.warn(
                "recoherence peak is ambiguous: a second candidate at total time "
                f"{where:.6g} reaches {value:.6g} vs {peak_value:.6g}",
                stacklevel=2,
            )
            break
    return t_max, peak_value


def auto_scan_range(cfg: InterferometerConfig) -> tuple[float, float]:
    """Laboratory times from the output start to comfortably past any
    recoherence peak: the larger cross delay plus ten spectral widths, undone
    at the outside birefringence, or 100 time units without birefringence."""
    terms = cfg.outside_terms
    dn_out = abs(terms.dn_out)
    reach = (max(abs(terms.a_1), abs(terms.a_2)) + 10.0) / dn_out if dn_out else 100.0
    t_start = cfg.window_out.t_start
    return t_start, min(t_start + reach, cfg.window_out.t_stop)


def check_estimator_regime(cfg: InterferometerConfig) -> None:
    """Raise EstimatorOutOfRegime unless the interference weights at the
    output beam splitter are negligible and the output coupling accumulates
    a delay."""
    kh, kv = interference_kappas(cfg)
    if max(abs(kh), abs(kv)) >= INTERFERENCE_TOL:
        raise EstimatorOutOfRegime(
            f"interference weights ({kh!r}, {kv!r}) are not negligible"
        )
    if cfg.outside_terms.dn_out == 0.0:
        raise EstimatorOutOfRegime(
            "output coupling has zero birefringence: no delay is accumulated"
        )


def time_difference_from_peak(cfg: InterferometerConfig, t_max: float) -> float:
    """The outside birefringence times the peak's total interaction time,
    divided by the largest inside refractive index."""
    n_max = max(cfg.window0.n_h, cfg.window0.n_v, cfg.window1.n_h, cfg.window1.n_v)
    return abs(cfg.window_out.delta_n) * t_max / n_max


def estimate_interaction_time_difference(cfg: InterferometerConfig) -> float:
    """Estimate the inside interaction-time difference from the recoherence peak.

    Valid only without interference at the output beam splitter
    (``check_estimator_regime``).  The returned value is
    ``time_difference_from_peak`` at the peak of ``lambda_peak``: a documented
    approximation of the true difference, not an exact inversion.  For equal
    durations and unequal inside indices the same quantity approximates the
    index difference times the common duration over the largest index.  The
    peak is searched over ``auto_scan_range(cfg)``; for another range, call
    ``lambda_peak`` and ``time_difference_from_peak`` directly.
    """
    check_estimator_regime(cfg)
    t_max, _ = lambda_peak(cfg, auto_scan_range(cfg))
    return time_difference_from_peak(cfg, t_max)
