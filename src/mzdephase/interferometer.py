"""Mach-Zehnder composition: joint and conditional polarization states inside
and outside the interferometer.

Inside, the photon takes a balanced superposition of two paths, each with its
own birefringent coupling.  The second beam splitter mixes the paths; the
shared outside coupling then acts identically on both output ports.  All
states are evaluated from closed forms built on the Gaussian decoherence
factor; the brute-force cross-check lives in the oracle module.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .channels import single_path_kappa
from .core import (
    DensityMatrix,
    InterferometerConfig,
    PolarizationState,
    check_density_matrices,
    effective_time,
    kappa_of_delay,
)
from .errors import ImpossibleOutcome

# below this conditioning probability a port is considered analytically dark
DARK_PORT_TOL = 1e-14

# an exact zero below this: an interference weight (the port carries no H-V
# coherence, its transfer f only roundoff) and, in the maps module, |f| (its
# phase is undefined)
ZERO_F_TOL = 1e-14

# every location a state is read at: its stage, before ("inside") or after
# ("outside") the output beam splitter, and the inside path or output port it
# is conditioned on, None for the average over both
LOCATION_STAGES = {
    "path0": ("inside", 0),
    "path1": ("inside", 1),
    "joint_inside": ("inside", None),
    "path0_out": ("outside", 0),
    "path1_out": ("outside", 1),
    "joint_out": ("outside", None),
}


def interference_kappas(cfg: InterferometerConfig) -> tuple[float, float]:
    """Real interference weights (kappa_H, kappa_V) at the output beam splitter,
    time-independent Python floats read from ``cfg.outside_terms``: the
    cross-terms between the two inside paths at the full coupling durations."""
    return cfg.outside_terms.kappa_h, cfg.outside_terms.kappa_v


def _shifted_kappas(cfg: InterferometerConfig, total, delays) -> list:
    """Decoherence factors after a total outside interaction time: the
    outside delay added on top of each of the given full inside delays."""
    shift = cfg.outside_terms.dn_out * total
    dist, theta = cfg.dist, cfg.pol.theta
    kappas = []
    for x in delays:
        kappas.append(kappa_of_delay(dist, theta, x + shift))
    return kappas


def _lambda_of_total_time(cfg: InterferometerConfig, total):
    """Cross-term transfer after a total outside interaction time, whose
    cancelling cross delays produce the recoherence peak."""
    k1, k2 = _shifted_kappas(cfg, total, (cfg.outside_terms.a_1, cfg.outside_terms.a_2))
    return k1 + k2


def _lambda_slope(cfg: InterferometerConfig):
    """The slope d|Lambda|^2/dT of the squared cross-term transfer modulus,
    as a function of the total outside interaction time T.

    With x_i = a_i + dn_out T and d kappa/dx = kappa (i mu - x), the slope is
    2 dn_out Re(conj(Lambda) sum_i kappa(x_i) (i mu - x_i)).  The mu part sums
    to i mu |Lambda|^2, which has no real part, so what is left is
    -2 dn_out sum_i x_i Re(conj(Lambda) kappa(x_i)).
    """
    terms = cfg.outside_terms
    a1, a2, dn_out = terms.a_1, terms.a_2, terms.dn_out
    dist, theta = cfg.dist, cfg.pol.theta

    def slope(total):
        x1, x2 = a1 + dn_out * total, a2 + dn_out * total
        k1 = kappa_of_delay(dist, theta, x1)
        k2 = kappa_of_delay(dist, theta, x2)
        conj_lam = (k1 + k2).conjugate()
        return -2.0 * dn_out * (x1 * (conj_lam * k1).real + x2 * (conj_lam * k2).real)

    return slope


def _check_index(kind: str, j) -> None:
    """Raise ValueError unless j names inside path or output port 0 or 1."""
    if j not in (0, 1):
        raise ValueError(f"{kind} index {j!r} is neither 0 nor 1")


def _check_times(times) -> None:
    """Raise ValueError naming the first time that is NaN or infinite."""
    if not (isinstance(times, float) and math.isfinite(times)):
        for t in np.asarray(times, dtype=float)[~np.isfinite(times)].flat:
            raise ValueError(f"time {float(t)!r} is not finite")


def coherence_transfer(cfg: InterferometerConfig, jp: int, t):
    """Conditional coherence transfer factor f_jp of output port jp.

    A quarter of the two shifted path factors plus (port 0) or minus (port 1)
    the cross-term transfer, at scalar or array laboratory times.  A port
    index other than 0 or 1, or a time that is not finite, raises ValueError.
    """
    _check_index("port", jp)
    _check_times(t)
    terms, total = cfg.outside_terms, effective_time(cfg.window_out, t)
    k0, k1, l1, l2 = _shifted_kappas(cfg, total, (terms.d_0, terms.d_1, terms.a_1, terms.a_2))
    return (k0 + k1 + (l1 + l2)) / 4.0 if jp == 0 else (k0 + k1 - (l1 + l2)) / 4.0


def _check_inside_time(cfg: InterferometerConfig, t: float):
    if t < 0 or t > cfg.window_out.t_start:
        raise ValueError(
            f"t={t} outside the inside region [0, {cfg.window_out.t_start}]"
        )


def joint_state_inside(cfg: InterferometerConfig, t: float) -> DensityMatrix:
    """Path-averaged state inside the interferometer (quantum erasure).

    Equal-weight mixture of the two single-path dephasing channels: the
    populations stay put and the coherence carries the mean of the two
    decoherence factors.
    """
    return _state(cfg, "inside", None, t)


def path_state_inside(cfg: InterferometerConfig, j: int, t: float) -> DensityMatrix:
    """State conditioned on finding the photon on inside path j.

    Each path is taken with probability exactly 1/2, and conditioning gives
    back the plain single-path dephasing channel of that arm.
    """
    return _state(cfg, "inside", j, t)


def path_probabilities(cfg: InterferometerConfig) -> tuple[float, float]:
    """Detection probabilities of the two output ports.

    Interference weights, weighted by the input populations, on top of the
    balanced 1/2 background (``cfg.outside_terms``); they sum to one.
    """
    return cfg.outside_terms.port_probabilities


def _lacks_coherence(weight_h: float, weight_v: float) -> bool:
    """Whether a port with these interference weights carries no H-V
    coherence: a weight below ZERO_F_TOL takes no light of its polarization."""
    return min(weight_h, weight_v) < ZERO_F_TOL


def _bright_port(cfg: InterferometerConfig, jp: int) -> float:
    """The conditioning probability of port jp; a dark port raises."""
    prob = cfg.outside_terms.port_probabilities[jp]
    if prob < DARK_PORT_TOL:
        raise ImpossibleOutcome(
            f"output port {jp} has probability {prob!r}; cannot condition on it"
        )
    return prob


def conditional_state_outside(
    cfg: InterferometerConfig,
    jp: int,
    t: float,
    normalized: bool = True,
) -> DensityMatrix:
    """State on output port jp at laboratory time t.

    Before the outside coupling opens the accumulated outside delay is zero,
    so the same expression also gives the state right at the exit.  The
    unnormalized variant omits the division by the port probability and is
    trace-non-increasing; its populations (and the normalized ones) are
    time-independent because only dephasing acts after the output beam
    splitter.
    """
    return _state(cfg, "outside", jp, t, normalized)


def averaged_state_outside(cfg: InterferometerConfig, t: float) -> DensityMatrix:
    """Port-averaged state outside the interferometer.

    Ignoring the port (erasing which-path information) removes every
    interference term: the coherence is the mean of the two path decoherence
    factors, each with the outside delay added to its full inside delay.
    """
    return _state(cfg, "outside", None, t)


def _closed_form(
    cfg: InterferometerConfig, stage: str, conditioning, times, normalized: bool = True
):
    """(transfer, weight_h, weight_v, prob) of the closed-form state at a
    (stage, conditioning) location, the transfer a scalar or an array as
    ``times`` is.

    The state is [[weight_h |c_h|^2, c_h c_v^* transfer], [conjugate,
    weight_v |c_v|^2]] / prob.  Weights and prob are one except on an output
    port, where they are its interference weights and, when ``normalized``,
    its probability; a dark port then raises ImpossibleOutcome, and a port
    without H-V coherence (_lacks_coherence) has a transfer of exactly zero.
    An index other than 0 or 1, or a time not finite, raises ValueError.
    """
    if stage == "inside" or conditioning is None:
        _check_times(times)  # coherence_transfer checks a port's
    if stage == "inside":
        theta = cfg.pol.theta
        if conditioning is not None:
            _check_index("path", conditioning)
            window = (cfg.window0, cfg.window1)[conditioning]
            return single_path_kappa(window, cfg.dist, theta, times), 1.0, 1.0, 1.0
        k0 = single_path_kappa(cfg.window0, cfg.dist, theta, times)
        k1 = single_path_kappa(cfg.window1, cfg.dist, theta, times)
        return (k0 + k1) / 2.0, 1.0, 1.0, 1.0
    if conditioning is None:
        total, terms = effective_time(cfg.window_out, times), cfg.outside_terms
        k0, k1 = _shifted_kappas(cfg, total, (terms.d_0, terms.d_1))
        return (k0 + k1) / 2.0, 1.0, 1.0, 1.0
    transfer = coherence_transfer(cfg, conditioning, times)
    weight_h, weight_v = cfg.outside_terms.port_weights[conditioning]
    if _lacks_coherence(weight_h, weight_v):
        transfer = np.zeros_like(transfer)  # not its roundoff
    prob = _bright_port(cfg, conditioning) if normalized else 1.0
    return transfer, weight_h, weight_v, prob


def _entries(cfg: InterferometerConfig, transfer, weight_h, weight_v, prob):
    """(pop_h, pop_v, coherence) of the closed-form state of these terms."""
    pol, scale = cfg.pol, 1.0 / prob
    return (weight_h * abs(pol.c_h) ** 2 * scale, weight_v * abs(pol.c_v) ** 2 * scale,
            pol.c_h * pol.c_v.conjugate() * transfer * scale)


def _state(
    cfg: InterferometerConfig, stage: str, conditioning, t: float, normalized=True
) -> DensityMatrix:
    """The closed-form state at a (stage, conditioning) location at one time,
    built from _closed_form's scalar terms.  Inside, t must lie in
    [0, window_out.t_start]."""
    if stage == "inside":
        _check_inside_time(cfg, t)
    pop_h, pop_v, coh = _entries(cfg, *_closed_form(cfg, stage, conditioning, t, normalized))
    return DensityMatrix(((pop_h, coh), (coh.conjugate(), pop_v)), require_unit_trace=normalized)


def _closed_form_states(cfg: InterferometerConfig, stage: str, conditioning, times) -> np.ndarray:
    """The normalized closed-form states rho[..., a, b] at a (stage,
    conditioning) location, one per entry of ``times``."""
    return _states(*_entries(cfg, *_closed_form(cfg, stage, conditioning, times)))


def _states(pop_h: float, pop_v: float, coherence: np.ndarray) -> np.ndarray:
    """The stack rho[..., a, b] of [[pop_h, coherence], [coherence^*, pop_v]],
    one matrix per entry of ``coherence``."""
    rho = np.empty(np.shape(coherence) + (2, 2), dtype=complex)
    rho[..., 0, 0] = pop_h
    rho[..., 0, 1] = coherence
    rho[..., 1, 0] = coherence.conjugate()
    rho[..., 1, 1] = pop_v
    return rho


def coherence_factors(cfg: InterferometerConfig, location: str, times) -> np.ndarray:
    """Coherence factor of the |+> / |-> pair at a location, at every time.

    The off-diagonal element <H|rho_+ - rho_-|V> of the pair's normalized
    states: 2 c_h c_v^* (one, up to rounding) times the coherence transfer
    divided by the pair's conditioning probability, that is kappa_j on inside
    path j, (kappa_0 + kappa_1) / 2 jointly inside, f_jp / p_jp on output
    port jp, and the mean of the two shifted path factors jointly outside.
    Its modulus is the pair's trace distance.  The configured polarization
    is replaced by the pair.

    Every normalized pair state is checked against the tolerances that
    DensityMatrix enforces, and a violation raises ValueError, as do inside
    locations at times outside [0, window_out.t_start].  A dark output port
    raises ImpossibleOutcome.
    """
    if location not in LOCATION_STAGES:
        raise ValueError(f"unknown location {location!r}")
    stage, conditioning = LOCATION_STAGES[location]
    times = np.asarray(times, dtype=float)
    if stage == "inside" and times.size:
        _check_inside_time(cfg, times.min())
        _check_inside_time(cfg, times.max())
    pair = replace(cfg, pol=PolarizationState.plus())
    states = _closed_form_states(pair, stage, conditioning, times)
    check_density_matrices(states)
    return 2.0 * states[..., 0, 1]
