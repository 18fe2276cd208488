"""Trace-distance dynamics, information backflow quantification and
optical-path-difference estimation from output-side memory effects."""
from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from ._intervals import RISE_TOL, merge_rising_steps
from .core import (
    InterferometerConfig,
    PolarizationState,
    _Value,
    effective_time,
    trace_distance,
)
from .errors import EstimatorOutOfRegime, PeakNotFound
from .interferometer import (
    LOCATION_STAGES,
    _check_times,
    _lambda_of_total_time,
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


class TraceDistanceSeries(_Value):
    """Trace distance of the evolved maximally coherent pair on a time grid."""

    __slots__ = _FIELDS = ("times", "values", "location")
    times: np.ndarray
    values: np.ndarray
    location: str

    def __init__(self, times: np.ndarray, values: np.ndarray, location: str):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if location not in LOCATIONS:
            raise ValueError(f"unknown location {location!r}")
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
        object.__setattr__(self, "location", location)


def _state_at(location: str):
    """The public per-point state function of a location, as state(cfg, t);
    an unknown location raises ValueError."""
    if location not in LOCATION_STAGES:
        raise ValueError(f"unknown location {location!r}")
    stage, index = LOCATION_STAGES[location]
    if index is None:
        return joint_state_inside if stage == "inside" else averaged_state_outside
    conditioned = path_state_inside if stage == "inside" else conditional_state_outside
    return lambda cfg, t: conditioned(cfg, index, t)


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
    state = _state_at(location)
    cfg_p = replace(cfg, pol=PolarizationState.plus())
    cfg_m = replace(cfg, pol=PolarizationState.minus())
    if "outside_terms" in vars(cfg):  # the table reads no polarization: the copies share it
        vars(cfg_p)["outside_terms"] = vars(cfg_m)["outside_terms"] = cfg.outside_terms
    values = [trace_distance(state(cfg_p, t), state(cfg_m, t)) for t in grid.tolist()]
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


def _scaled_slope(terms, cos_mu: float, total: float) -> float:
    """d|Lambda|^2/dT at total outside interaction time T, times the positive
    e^(min(x_1^2, x_2^2)) so that its sign survives where |Lambda|^2
    underflows; from |Lambda|^2 = e^(-x_1^2) + e^(-x_2^2) + 2 C e^(-(x_1^2 +
    x_2^2) / 2), with x_i = a_i + dn_out T and C = cos(mu (a_2 - a_1))."""
    x1, x2 = terms.a_1 + terms.dn_out * total, terms.a_2 + terms.dn_out * total
    s1, s2 = x1 * x1, x2 * x2
    least = min(s1, s2)
    return -2.0 * terms.dn_out * (x1 * math.exp(least - s1) + x2 * math.exp(least - s2)
                                  + cos_mu * (x1 + x2) * math.exp(-0.5 * abs(s1 - s2)))


def _hump(terms, cos_mu: float, a: float, b: float) -> float:
    """Where |Lambda| stops rising in [a, b], on which it rises and then falls
    (either part may be empty): the sign of _scaled_slope bisected down to
    adjacent floats, the last time found rising, or a if none is."""
    while True:
        m = a + 0.5 * (b - a)
        if not a < m < b:
            return a
        if _scaled_slope(terms, cos_mu, m) > 0.0:
            a = m
        else:
            b = m


def lambda_peak(
    cfg: InterferometerConfig, scan_range: tuple[float, float]
) -> tuple[float, float]:
    """Locate the global maximum of the cross-term transfer modulus.

    Returns (t_max, peak_value) where t_max is the total outside interaction
    time at the maximum of |Lambda|.  With x_i = a_i + dn_out T, the centre
    T_c = -(a_1 + a_2) / (2 dn_out), d = |a_2 - a_1| / 2, C = cos(mu (a_2 -
    a_1)) and u = dn_out (T - T_c),

        |Lambda|^2 = 2 e^(-u^2 - d^2) (cosh(2 u d) + C),

    even in u, rising and then falling in |u|: one hump at T_c when
    2 d^2 <= 1 + C, else two mirror humps of equal height at T_c +- r.  So
    each side of T_c holds one hump, T_c itself or one found by bisecting
    the sign of the slope d|Lambda|^2/dT within R = (d + ``PEAK_REACH``) /
    |dn_out| of T_c (beyond it |Lambda| stays below ``PEAK_FLOOR_TOL``),
    clipped to the part of the range on its side.  The larger |Lambda| of
    the two wins; an exact tie goes to
    the earlier time.  Raises PeakNotFound when the signal stays below
    ``PEAK_FLOOR_TOL`` over the whole range; warns when the other side's
    hump, more than two sampling steps of 1/40 of the width 1/|dn_out| (at
    most 1/100 of the range) away, comes within 1% of the peak.  Raises
    ValueError, its message led by ``scan_range``, for a range not ordered,
    and ``cfg.outside_terms``'s one naming mu when mu (a_2 - a_1) overflows.
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

    gap = terms.a_2 - terms.a_1
    cos_mu = math.cos(cfg.dist.mu * gap)
    one_hump = gap * gap / 2.0 <= 1.0 + cos_mu  # 2 d^2 <= 1 + C
    centre = -(terms.a_1 + terms.a_2) / (2.0 * dn_out)
    reach = (abs(gap) / 2.0 + PEAK_REACH) / abs(dn_out)
    humps = []  # (peak value, total time), earlier side first
    for a, b, side_lo, side_hi in ((centre - reach, centre, lo, min(hi, centre)),
                                   (centre, centre + reach, max(lo, centre), hi)):
        if side_lo <= side_hi:
            top = centre if one_hump else _hump(terms, cos_mu, a, b)
            t = min(max(side_lo, top), side_hi)  # a range end as given
            humps.append((abs(_lambda_of_total_time(cfg, t)), t))

    peak_value, t_max = max(humps, key=lambda hump: hump[0])
    if peak_value < PEAK_FLOOR_TOL:
        raise PeakNotFound("cross-term transfer below floor over the scan range")
    separation = 2.0 * min(1.0 / abs(dn_out) / 40.0, (hi - lo) / 100.0)
    for value, where in humps:
        if abs(where - t_max) > separation and value > 0.99 * peak_value:
            warnings.warn(
                "recoherence peak is ambiguous: a second candidate at total time "
                f"{where:.6g} reaches {value:.6g} vs {peak_value:.6g}",
                stacklevel=2,
            )
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
