"""Trace-distance dynamics, information backflow quantification and
optical-path-difference estimation from output-side memory effects."""
from __future__ import annotations

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
    _cross_delays,
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
        if len(times) != len(values) or len(times) < 2:
            raise ValueError("times and values must have equal length >= 2")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("trace distances must lie in [0, 1]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _state_at(cfg: InterferometerConfig, location: str, t: float) -> DensityMatrix:
    if location == "path0":
        return path_state_inside(cfg, 0, t)
    if location == "path1":
        return path_state_inside(cfg, 1, t)
    if location == "joint_inside":
        return joint_state_inside(cfg, t)
    if location == "path0_out":
        return conditional_state_outside(cfg, 0, t)
    if location == "path1_out":
        return conditional_state_outside(cfg, 1, t)
    if location == "joint_out":
        return averaged_state_outside(cfg, t)
    raise ValueError(f"unknown location {location!r}")


def trace_distance_series(
    cfg: InterferometerConfig, location: str, grid
) -> TraceDistanceSeries:
    """Pairwise trace distance of the evolved |+> / |-> pair at each grid time.

    The input pair replaces the configured polarization; conditioning or
    averaging is applied according to the location.  Dark-port locations
    raise ImpossibleOutcome.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.empty(len(grid))
    cfg_p = replace(cfg, pol=PolarizationState.plus())
    cfg_m = replace(cfg, pol=PolarizationState.minus())
    for k, t in enumerate(grid):
        values[k] = trace_distance(
            _state_at(cfg_p, location, t), _state_at(cfg_m, location, t)
        )
    return TraceDistanceSeries(grid, values, location)


def backflow_intervals(
    series: TraceDistanceSeries, rise_tol: float = RISE_TOL
) -> list[tuple[float, float]]:
    """Maximal grid intervals on which the trace distance rises.

    A step counts when the increase between consecutive grid points exceeds
    ``rise_tol``; adjacent rising steps are merged.
    """
    rising = np.diff(series.values) > rise_tol
    return merge_rising_steps(series.times, rising)


def blp_measure(series: TraceDistanceSeries, rise_tol: float = RISE_TOL) -> float:
    """Total information backflow: the sum of trace-distance increments that
    exceed the rise tolerance.  Zero iff no backflow above tolerance."""
    inc = np.diff(series.values)
    return float(inc[inc > rise_tol].sum())


def _lambda_envelope(cfg: InterferometerConfig, total: np.ndarray) -> np.ndarray:
    """Smooth upper envelope: sum of the two term moduli."""
    a1, a2 = _cross_delays(cfg)
    dn_out = cfg.window_out.delta_n
    sigma = cfg.dist.sigma
    e1 = np.exp(-0.5 * (sigma * (a1 + dn_out * total)) ** 2)
    e2 = np.exp(-0.5 * (sigma * (a2 + dn_out * total)) ** 2)
    return e1 + e2


def lambda_peak(
    cfg: InterferometerConfig,
    scan_range: tuple[float, float],
    floor_tol: float = PEAK_FLOOR_TOL,
) -> tuple[float, float]:
    """Locate the global maximum of the cross-term transfer modulus.

    Returns (t_max, peak_value) where t_max is the total outside interaction
    time at the maximum of |Lambda|.  A coarse scan of the smooth two-term
    envelope brackets the candidates; |Lambda| itself is then refined locally
    at oscillation-resolving resolution.  Raises PeakNotFound when the signal
    stays below ``floor_tol`` over the whole range; warns when a second,
    well-separated candidate comes within 1% of the global maximum.
    """
    t_lo, t_hi = scan_range
    if t_hi < t_lo:
        raise ValueError("scan_range must be ordered")
    lo = float(effective_time(cfg.window_out, t_lo))
    hi = float(effective_time(cfg.window_out, t_hi))
    dn_out = cfg.window_out.delta_n

    if dn_out == 0.0 or hi == lo:
        peak = float(np.abs(_lambda_of_total_time(cfg, np.array([lo]))[0]))
        if peak < floor_tol:
            raise PeakNotFound("cross-term transfer below floor over the scan range")
        return lo, peak

    # coarse stage on the envelope; its width in total time is 1/(sigma |dn'|)
    width = 1.0 / (cfg.dist.sigma * abs(dn_out))
    coarse_step = min(width / 40.0, (hi - lo) / 100.0)
    coarse = np.arange(lo, hi + coarse_step, coarse_step)
    coarse = coarse[coarse <= hi]
    if coarse[-1] < hi:
        coarse = np.append(coarse, hi)
    env = _lambda_envelope(cfg, coarse)

    interior = (env[1:-1] >= env[:-2]) & (env[1:-1] >= env[2:])
    candidates = [0, len(coarse) - 1] + list(np.nonzero(interior)[0] + 1)

    n_max = max(
        cfg.window0.n_h, cfg.window0.n_v, cfg.window1.n_h, cfg.window1.n_v,
        cfg.window_out.n_h, cfg.window_out.n_v,
    )
    fine_step = np.pi / (8.0 * abs(cfg.dist.mu) * n_max) if cfg.dist.mu else coarse_step

    best = []  # (peak value, total time) per candidate
    for idx in candidates:
        a = max(lo, coarse[idx] - coarse_step)
        b = min(hi, coarse[idx] + coarse_step)
        fine = np.arange(a, b + fine_step, fine_step)
        fine = fine[fine <= b]
        mod = np.abs(_lambda_of_total_time(cfg, fine))
        k = int(np.argmax(mod))
        best.append((float(mod[k]), float(fine[k])))

    best.sort(reverse=True)
    peak_value, t_max = best[0]
    if peak_value < floor_tol:
        raise PeakNotFound("cross-term transfer below floor over the scan range")

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
    a1, a2 = _cross_delays(cfg)
    dn_out = abs(cfg.window_out.delta_n)
    reach = (max(abs(a1), abs(a2)) + 10.0 / cfg.dist.sigma) / dn_out if dn_out else 100.0
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
    if cfg.window_out.delta_n == 0.0:
        raise EstimatorOutOfRegime(
            "output coupling has zero birefringence: no delay is accumulated"
        )


def time_difference_from_peak(cfg: InterferometerConfig, t_max: float) -> float:
    """The outside birefringence times the peak's total interaction time,
    divided by the largest inside refractive index."""
    n_max = max(cfg.window0.n_h, cfg.window0.n_v, cfg.window1.n_h, cfg.window1.n_v)
    return abs(cfg.window_out.delta_n) * t_max / n_max


def estimate_interaction_time_difference(
    cfg: InterferometerConfig, scan_range: tuple[float, float] | None = None
) -> float:
    """Estimate the inside interaction-time difference from the recoherence peak.

    Valid only without interference at the output beam splitter
    (``check_estimator_regime``).  The returned value is
    ``time_difference_from_peak`` at the peak of ``lambda_peak``: a documented
    approximation of the true difference, not an exact inversion.  For equal
    durations and unequal inside indices the same quantity approximates the
    index difference times the common duration over the largest index.  The
    peak is searched over ``scan_range``, by default ``auto_scan_range(cfg)``.
    """
    check_estimator_regime(cfg)
    t_max, _ = lambda_peak(cfg, scan_range or auto_scan_range(cfg))
    return time_difference_from_peak(cfg, t_max)
