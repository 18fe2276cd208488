"""Independent reference: the paper's closed forms, computed with numpy straight
from the numbers of a config document.

Nothing here imports ``mzdephase``; the benchmark checks the program against
these values.  Times are in units of 1/sigma with sigma = 1, as in the
program.  The trace distance of the evolved |+>/|-> pair equals the modulus of
the coherence factor divided by the conditioning probability:

- ``path0`` / ``path1``: ``D = exp(-(dn_j * t_eff_j)^2 / 2)``;
- ``joint_inside`` / ``joint_out``: ``|kappa_0 + kappa_1| / 2``;
- ``path0_out`` / ``path1_out``: ``|f_jp| / p_jp`` with
  ``f = (kappa_0' + kappa_1' +- Lambda) / 4`` and
  ``p_0 = (2 + (kappa_H + kappa_V) / 2) / 4``.
"""
from __future__ import annotations

import math

import numpy as np

# the program treats a port whose conditioning probability is below this as dark
DARK_PORT_TOL = 1e-14

# the oracle's frequency grid spans mu +- 8 sigma (its default half width)
ORACLE_HALF_WIDTH = 8.0

# distance, in units of sigma, kept between the largest delay and the first
# alias of the trapezoid rule; the alias then weighs exp(-50) ~ 2e-22
ALIAS_MARGIN = 10.0

# width of the dense |Lambda| scan around each cancellation point, in units of
# the peak width 1 / |dn_out|, and its number of points
LAMBDA_SCAN_WIDTHS = 6.0
LAMBDA_SCAN_POINTS = 4001


class Setup:
    """Plain numbers of one config document."""

    def __init__(self, doc: dict):
        self.mu = float(doc["distribution"]["mu_over_sigma"])
        self.arms = []
        for key in ("arm0", "arm1"):
            w = doc[key]
            self.arms.append(
                (float(w["n_h"]), float(w["n_v"]), float(w.get("t_start", 0.0)),
                 float(w["t_stop"]))
            )
        out = doc["output"]
        stop = out.get("t_stop")
        self.out = (float(out["n_h"]), float(out["n_v"]), float(out["t_start"]),
                    math.inf if stop is None else float(stop))
        pol = doc.get("polarization", {})
        ch = complex(pol.get("ch_re", 1 / math.sqrt(2)), pol.get("ch_im", 0.0))
        cv = complex(pol.get("cv_re", 1 / math.sqrt(2)), pol.get("cv_im", 0.0))
        self.pop_h, self.pop_v = abs(ch) ** 2, abs(cv) ** 2

    @property
    def durations(self) -> tuple[float, float]:
        return tuple(stop - start for _, _, start, stop in self.arms)

    @property
    def dn_out(self) -> float:
        return self.out[0] - self.out[1]


def _eff(window, t):
    _, _, start, stop = window
    return np.clip(np.asarray(t, dtype=float), start, stop) - start


def _kappa(mu, x):
    return np.exp(1j * mu * x - 0.5 * x ** 2)


def cross_delays(s: Setup) -> tuple[float, float]:
    """Delays between the H part of one arm and the V part of the other."""
    (nh0, nv0, _, _), (nh1, nv1, _, _) = s.arms
    t0, t1 = s.durations
    return nh0 * t0 - nv1 * t1, nh1 * t1 - nv0 * t0


def interference_weights(s: Setup) -> tuple[float, float]:
    """(kappa_H, kappa_V): cross terms of the two arms at the output splitter."""
    (nh0, nv0, _, _), (nh1, nv1, _, _) = s.arms
    t0, t1 = s.durations
    out = []
    for n0, n1 in ((nh0, nh1), (nv0, nv1)):
        d = n0 * t0 - n1 * t1
        out.append(2.0 * math.exp(-0.5 * d * d) * math.cos(s.mu * d))
    return out[0], out[1]


def port_probabilities(s: Setup, pop_h: float | None = None) -> tuple[float, float]:
    """Output-port probabilities for the given H population (default: config's)."""
    ph = s.pop_h if pop_h is None else pop_h
    pv = s.pop_v if pop_h is None else 1.0 - pop_h
    kh, kv = interference_weights(s)
    return (2.0 + ph * kh + pv * kv) / 4.0, (2.0 - ph * kh - pv * kv) / 4.0


def pop_h_out(s: Setup, jp: int) -> float | None:
    """H population of the normalized port-jp state; None on a dark port."""
    kh, _ = interference_weights(s)
    p = port_probabilities(s)[jp]
    if p < DARK_PORT_TOL:
        return None
    return (2.0 + (-1) ** jp * kh) / 4.0 * s.pop_h / p


def lambda_abs(s: Setup, total):
    """|Lambda| at total outside interaction time(s) ``total``."""
    a1, a2 = cross_delays(s)
    total = np.asarray(total, dtype=float)
    return np.abs(_kappa(s.mu, a1 + s.dn_out * total) + _kappa(s.mu, a2 + s.dn_out * total))


def trace_distance(s: Setup, location: str, times) -> np.ndarray | None:
    """Trace distance of the |+>/|-> pair at ``location``; None on a dark port."""
    t = np.asarray(times, dtype=float)
    if location in ("path0", "path1"):
        w = s.arms[int(location[-1])]
        return np.exp(-0.5 * ((w[0] - w[1]) * _eff(w, t)) ** 2)
    if location == "joint_inside":
        k0, k1 = (_kappa(s.mu, (w[0] - w[1]) * _eff(w, t)) for w in s.arms)
        return np.abs(k0 + k1) / 2.0
    shift = s.dn_out * _eff(s.out, t)
    k0, k1 = (
        _kappa(s.mu, (nh - nv) * d + shift)
        for (nh, nv, _, _), d in zip(s.arms, s.durations)
    )
    if location == "joint_out":
        return np.abs(k0 + k1) / 2.0
    jp = int(location[4])
    p = port_probabilities(s, pop_h=0.5)[jp]
    if p < DARK_PORT_TOL:
        return None
    a1, a2 = cross_delays(s)
    lam = _kappa(s.mu, a1 + shift) + _kappa(s.mu, a2 + shift)
    f = (k0 + k1 + (-1) ** jp * lam) / 4.0
    return np.abs(f) / p


def estimator_scan(s: Setup) -> tuple[float, float]:
    """Laboratory-time range the path-difference estimator searches: from the
    start of the output coupling to past the farther cancellation point."""
    a1, a2 = cross_delays(s)
    _, _, start, stop = s.out
    reach = (max(abs(a1), abs(a2)) + 10.0) / abs(s.dn_out)
    return start, min(start + reach, stop)


def lambda_scan_max(s: Setup, t_lo: float, t_hi: float) -> float:
    """Largest |Lambda| on dense scans around every cancellation point
    ``T* = -a_i / dn_out`` inside the range, plus the range's end points."""
    lo, hi = (float(_eff(s.out, t)) for t in (t_lo, t_hi))
    best = float(np.max(lambda_abs(s, [lo, hi])))
    width = LAMBDA_SCAN_WIDTHS / abs(s.dn_out)
    for a in cross_delays(s):
        centre = -a / s.dn_out
        if lo <= centre <= hi:
            scan = np.linspace(max(lo, centre - width), min(hi, centre + width),
                               LAMBDA_SCAN_POINTS)
            best = max(best, float(np.max(lambda_abs(s, np.append(scan, centre)))))
    return best


def max_delay(s: Setup, t) -> np.ndarray:
    """Largest delay between any two polarization-path components at time t:
    the largest argument the oracle's frequency integral must resolve."""
    t = np.asarray(t, dtype=float)
    nh_o, nv_o, _, _ = s.out
    out_t = _eff(s.out, t)
    phases = [
        n * _eff(w, t) + n_o * out_t
        for w in s.arms
        for n, n_o in ((w[0], nh_o), (w[1], nv_o))
    ]
    return np.max(phases, axis=0) - np.min(phases, axis=0)


def alias_free_delay(n_freq: int) -> float:
    """Largest delay a trapezoid grid of ``n_freq`` points resolves with the
    margin kept: its alias period ``2*pi/h`` minus ``ALIAS_MARGIN``."""
    step = 2.0 * ORACLE_HALF_WIDTH / (n_freq - 1)
    return 2.0 * math.pi / step - ALIAS_MARGIN


def alias_horizon(s: Setup, n_freq: int) -> float:
    """Latest laboratory time at which the oracle with ``n_freq`` points is
    still alias-free.  Once the output coupling runs, each component phase
    grows at its output index, so every pairwise delay is linear in time."""
    limit = alias_free_delay(n_freq)
    nh_o, nv_o, start, _ = s.out
    comps = [
        (n * float(_eff(w, start)), rate)
        for w in s.arms
        for n, rate in ((w[0], nh_o), (w[1], nv_o))
    ]
    horizon = math.inf
    for phase_i, rate_i in comps:
        for phase_j, rate_j in comps:
            if phase_i - phase_j > limit:
                raise ValueError(f"n_freq={n_freq} aliases already at t={start}")
            if rate_i > rate_j:
                horizon = min(horizon, (limit - (phase_i - phase_j)) / (rate_i - rate_j))
    return start + horizon
