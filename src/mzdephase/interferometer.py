"""Mach-Zehnder composition: joint and conditional polarization states inside
and outside the interferometer.

Inside, the photon takes a balanced superposition of two paths, each with its
own birefringent coupling.  The second beam splitter mixes the paths; the
shared outside coupling then acts identically on both output ports.  All
states are evaluated from closed forms built on the Gaussian decoherence
factor; the brute-force cross-check lives in the oracle module.
"""
from __future__ import annotations

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
    """Real interference weights (kappa_H, kappa_V) at the output beam splitter.

    They originate from the cross-terms between the two inside paths evaluated
    at the full coupling durations: a Gaussian envelope in the optical path
    difference of each polarization component times a cosine at the mean
    frequency, with prefactor 2.  Time-independent; returned as Python floats.
    """
    t0, t1 = cfg.window0.duration, cfg.window1.duration
    mu, sigma = cfg.dist.mu, cfg.dist.sigma
    out = []
    for n0, n1 in (
        (cfg.window0.n_h, cfg.window1.n_h),
        (cfg.window0.n_v, cfg.window1.n_v),
    ):
        d = n0 * t0 - n1 * t1
        out.append(float(2.0 * np.exp(-0.5 * (sigma * d) ** 2) * np.cos(mu * d)))
    return out[0], out[1]


def _cross_delays(cfg: InterferometerConfig) -> tuple[float, float]:
    """Inside delays between the H component of one path and the V component
    of the other; the outside coupling shifts both and their cancellation
    produces the recoherence peak."""
    t0, t1 = cfg.window0.duration, cfg.window1.duration
    a1 = cfg.window0.n_h * t0 - cfg.window1.n_v * t1
    a2 = cfg.window1.n_h * t1 - cfg.window0.n_v * t0
    return a1, a2


def _lambda_of_total_time(cfg: InterferometerConfig, total):
    """Cross-term transfer after a total outside interaction time."""
    a1, a2 = _cross_delays(cfg)
    shift = cfg.window_out.delta_n * total
    theta = cfg.pol.theta
    return kappa_of_delay(cfg.dist, theta, a1 + shift) + kappa_of_delay(
        cfg.dist, theta, a2 + shift
    )


def _shifted_kappas(cfg: InterferometerConfig, total):
    """Decoherence factors of both paths after a total outside interaction
    time: the outside delay added on top of each full inside delay."""
    shift = cfg.window_out.delta_n * total
    return tuple(
        kappa_of_delay(cfg.dist, cfg.pol.theta, window.delta_n * window.duration + shift)
        for window in (cfg.window0, cfg.window1)
    )


def _check_index(kind: str, j) -> None:
    """Raise ValueError unless j names inside path or output port 0 or 1."""
    if j not in (0, 1):
        raise ValueError(f"{kind} index {j!r} is neither 0 nor 1")


def coherence_transfer(cfg: InterferometerConfig, jp: int, t):
    """Conditional coherence transfer factor f_jp of output port jp.

    A quarter of the two shifted path factors plus (port 0) or minus (port 1)
    the cross-term transfer.  Accepts scalar or array laboratory times.  A
    port index other than 0 or 1 raises ValueError.
    """
    _check_index("port", jp)
    total = effective_time(cfg.window_out, t)
    k0, k1 = _shifted_kappas(cfg, total)
    lam = _lambda_of_total_time(cfg, total)
    return (k0 + k1 + lam) / 4.0 if jp == 0 else (k0 + k1 - lam) / 4.0


def _port_weight(kappa: float, jp: int) -> float:
    """Population weight of the unnormalized port-jp state for the
    interference weight of that polarization."""
    return (2.0 + (-1) ** jp * kappa) / 4.0


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
    balanced 1/2 background; the two always sum to one.
    """
    return _port_probabilities(cfg, *interference_kappas(cfg))


def _port_probabilities(
    cfg: InterferometerConfig, kh: float, kv: float
) -> tuple[float, float]:
    ph = abs(cfg.pol.c_h) ** 2
    pv = abs(cfg.pol.c_v) ** 2
    p0 = (2.0 + ph * kh + pv * kv) / 4.0
    return p0, 1.0 - p0


def _lacks_coherence(weight_h: float, weight_v: float) -> bool:
    """Whether a port with these interference weights carries no H-V
    coherence: a weight below ZERO_F_TOL takes no light of its polarization."""
    return min(weight_h, weight_v) < ZERO_F_TOL


def _bright_port(probs: tuple[float, float], jp: int) -> float:
    """The conditioning probability of port jp; a dark port raises."""
    prob = probs[jp]
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
    A path or port index other than 0 or 1 raises ValueError.
    """
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
        k0, k1 = _shifted_kappas(cfg, effective_time(cfg.window_out, times))
        return (k0 + k1) / 2.0, 1.0, 1.0, 1.0
    kh, kv = interference_kappas(cfg)
    transfer = coherence_transfer(cfg, conditioning, times)
    weight_h, weight_v = _port_weight(kh, conditioning), _port_weight(kv, conditioning)
    if _lacks_coherence(weight_h, weight_v):
        transfer = np.zeros_like(transfer)  # not its roundoff
    prob = _bright_port(_port_probabilities(cfg, kh, kv), conditioning) if normalized else 1.0
    return transfer, weight_h, weight_v, prob


def _state(
    cfg: InterferometerConfig, stage: str, conditioning, t: float, normalized=True
) -> DensityMatrix:
    """The closed-form state at a (stage, conditioning) location at one time:
    a one-element view of _closed_form, scaled by the reciprocal probability
    as numpy divides a complex array by a float, so sweep's 17-digit
    populations keep the bits of _closed_form_states.  Inside, t must lie in
    [0, window_out.t_start]."""
    if stage == "inside":
        _check_inside_time(cfg, t)
    transfer, w_h, w_v, prob = _closed_form(cfg, stage, conditioning, t, normalized)
    pol, scale = cfg.pol, 1.0 / prob
    coh = pol.c_h * pol.c_v.conjugate() * transfer
    m = [[w_h * abs(pol.c_h) ** 2, coh], [coh.conjugate(), w_v * abs(pol.c_v) ** 2]]
    return DensityMatrix([[x * scale for x in row] for row in m], require_unit_trace=normalized)


def _closed_form_states(
    cfg: InterferometerConfig, stage: str, conditioning, times: np.ndarray
) -> np.ndarray:
    """The closed-form states rho[time, a, b] at a (stage, conditioning)
    location, at every one of ``times``.  Conditional states are scaled by
    the reciprocal port probability, as conditional_state_outside scales
    them."""
    transfer, weight_h, weight_v, prob = _closed_form(cfg, stage, conditioning, times)
    pol = cfg.pol
    scale = 1.0 / prob
    return _states(
        weight_h * abs(pol.c_h) ** 2 * scale,
        weight_v * abs(pol.c_v) ** 2 * scale,
        pol.c_h * pol.c_v.conjugate() * transfer * scale,
    )


def _states(pop_h: float, pop_v: float, coherence: np.ndarray) -> np.ndarray:
    """The stack rho[..., a, b] of [[pop_h, coherence], [coherence^*, pop_v]],
    one matrix per entry of ``coherence``."""
    rho = np.empty(np.shape(coherence) + (2, 2), dtype=complex)
    rho[..., 0, 0] = pop_h
    rho[..., 0, 1] = coherence
    rho[..., 1, 0] = np.conj(coherence)
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
