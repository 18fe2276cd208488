"""Mach-Zehnder composition: joint and conditional polarization states inside
and outside the interferometer.

Inside, the photon takes a balanced superposition of two paths, each with its
own birefringent coupling.  The second beam splitter mixes the paths; the
shared outside coupling then acts identically on both output ports.  All
states are evaluated from closed forms built on the Gaussian decoherence
factor; the brute-force cross-check lives in the oracle module.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channels import _dephased_state, single_path_kappa, single_path_state
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


def _inside_durations(cfg: InterferometerConfig) -> tuple[float, float]:
    return cfg.window0.duration, cfg.window1.duration


def interference_kappas(cfg: InterferometerConfig) -> tuple[float, float]:
    """Real interference weights (kappa_H, kappa_V) at the output beam splitter.

    They originate from the cross-terms between the two inside paths evaluated
    at the full coupling durations: a Gaussian envelope in the optical path
    difference of each polarization component times a cosine at the mean
    frequency, with prefactor 2.  Time-independent; returned as Python floats.
    """
    t0, t1 = _inside_durations(cfg)
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
    t0, t1 = _inside_durations(cfg)
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


def lambda_function(cfg: InterferometerConfig, t):
    """Cross-term coherence transfer for the conditional output states.

    Sum of two decoherence factors whose delays pair the H component of one
    inside path with the V component of the other, both shifted by the
    accumulated outside delay.  Accepts scalar or array t.
    """
    return _lambda_of_total_time(cfg, effective_time(cfg.window_out, t))


def _shifted_kappas(cfg: InterferometerConfig, total):
    """Decoherence factors of both paths after a total outside interaction
    time: the outside delay added on top of each full inside delay."""
    shift = cfg.window_out.delta_n * total
    return tuple(
        kappa_of_delay(cfg.dist, cfg.pol.theta, window.delta_n * window.duration + shift)
        for window in (cfg.window0, cfg.window1)
    )


def coherence_transfer(cfg: InterferometerConfig, jp: int, t):
    """Conditional coherence transfer factor f_jp of output port jp.

    A quarter of the two shifted path factors plus (port 0) or minus (port 1)
    the cross-term transfer.  Accepts scalar or array laboratory times.
    """
    total = effective_time(cfg.window_out, t)
    k0, k1 = _shifted_kappas(cfg, total)
    lam = _lambda_of_total_time(cfg, total)
    return (k0 + k1 + lam) / 4.0 if jp == 0 else (k0 + k1 - lam) / 4.0


def _port_weight(kappa: float, jp: int) -> float:
    """Population weight of the unnormalized port-jp state for the
    interference weight of that polarization."""
    return (2.0 + (-1) ** jp * kappa) / 4.0


@dataclass(frozen=True)
class OutputFunctions:
    """Closed-form ingredients of the output-side dynamics for one config.

    kappa_h / kappa_v are the time-independent interference weights; lambda_at
    evaluates the cross-term transfer; f0 / f1 give the conditional coherence
    transfer factor of each output port.  All callables accept scalar or
    array laboratory times.
    """

    kappa_h: float
    kappa_v: float
    lambda_at: Callable
    f0: Callable
    f1: Callable
    kappa0_at: Callable
    kappa1_at: Callable

    @classmethod
    def from_config(cls, cfg: InterferometerConfig) -> "OutputFunctions":
        kh, kv = interference_kappas(cfg)

        def lam(t, _cfg=cfg):
            return lambda_function(_cfg, t)

        def k0(t, _cfg=cfg):
            return _shifted_kappas(_cfg, effective_time(_cfg.window_out, t))[0]

        def k1(t, _cfg=cfg):
            return _shifted_kappas(_cfg, effective_time(_cfg.window_out, t))[1]

        def f0(t, _cfg=cfg):
            return coherence_transfer(_cfg, 0, t)

        def f1(t, _cfg=cfg):
            return coherence_transfer(_cfg, 1, t)

        return cls(kh, kv, lam, f0, f1, k0, k1)

    def f(self, jp: int, t):
        """Coherence transfer factor of output port jp."""
        return self.f0(t) if jp == 0 else self.f1(t)

    def h(self, jp: int) -> float:
        """H-population weight of the unnormalized port-jp state."""
        return _port_weight(self.kappa_h, jp)

    def v(self, jp: int) -> float:
        """V-population weight of the unnormalized port-jp state."""
        return _port_weight(self.kappa_v, jp)


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
    _check_inside_time(cfg, t)
    theta = cfg.pol.theta
    k0 = single_path_kappa(cfg.window0, cfg.dist, theta, t)
    k1 = single_path_kappa(cfg.window1, cfg.dist, theta, t)
    return _dephased_state(cfg.pol, (k0 + k1) / 2.0)


def path_state_inside(cfg: InterferometerConfig, j: int, t: float) -> DensityMatrix:
    """State conditioned on finding the photon on inside path j.

    Each path is taken with probability exactly 1/2, and conditioning gives
    back the plain single-path dephasing channel of that arm.
    """
    _check_inside_time(cfg, t)
    window = cfg.window0 if j == 0 else cfg.window1
    return single_path_state(cfg.pol, window, cfg.dist, t)


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
    kh, kv = interference_kappas(cfg)
    pol = cfg.pol
    coh = pol.c_h * pol.c_v.conjugate() * coherence_transfer(cfg, jp, t)
    m = [
        [_port_weight(kh, jp) * abs(pol.c_h) ** 2, coh],
        [coh.conjugate(), _port_weight(kv, jp) * abs(pol.c_v) ** 2],
    ]
    if not normalized:
        return DensityMatrix(m, require_unit_trace=False)
    # reciprocal scaling, as numpy divides a complex array by a float: the
    # populations that sweep prints to 17 digits keep those bits
    scale = 1.0 / _bright_port(_port_probabilities(cfg, kh, kv), jp)
    return DensityMatrix([[x * scale for x in row] for row in m])


def averaged_state_outside(cfg: InterferometerConfig, t: float) -> DensityMatrix:
    """Port-averaged state outside the interferometer.

    Ignoring the port (erasing which-path information) removes every
    interference term: the coherence is the mean of the two path decoherence
    factors, each with the outside delay added to its full inside delay.
    """
    k0, k1 = _shifted_kappas(cfg, effective_time(cfg.window_out, t))
    return _dephased_state(cfg.pol, (k0 + k1) / 2.0)


def _closed_form(cfg: InterferometerConfig, stage: str, conditioning, times):
    """(transfer, weight_h, weight_v, prob) of the closed-form state at a
    (stage, conditioning) location, the transfer an array over times.

    The state is [[weight_h |c_h|^2, c_h c_v^* transfer], [conjugate,
    weight_v |c_v|^2]] / prob.  Weights and prob are one except on an output
    port, where they are its interference weights and its probability; a
    dark port raises ImpossibleOutcome.
    """
    if stage == "inside":
        theta = cfg.pol.theta
        k0 = single_path_kappa(cfg.window0, cfg.dist, theta, times)
        k1 = single_path_kappa(cfg.window1, cfg.dist, theta, times)
        transfer = (k0 + k1) / 2.0 if conditioning is None else (k0, k1)[conditioning]
        return transfer, 1.0, 1.0, 1.0
    if conditioning is None:
        k0, k1 = _shifted_kappas(cfg, effective_time(cfg.window_out, times))
        return (k0 + k1) / 2.0, 1.0, 1.0, 1.0
    kh, kv = interference_kappas(cfg)
    prob = _bright_port(_port_probabilities(cfg, kh, kv), conditioning)
    return (
        coherence_transfer(cfg, conditioning, times),
        _port_weight(kh, conditioning),
        _port_weight(kv, conditioning),
        prob,
    )


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
    transfer, weight_h, weight_v, prob = _closed_form(pair, stage, conditioning, times)
    pop_h = weight_h * abs(pair.pol.c_h) ** 2 / prob
    pop_v = weight_v * abs(pair.pol.c_v) ** 2 / prob
    coherence = pair.pol.c_h * np.conj(pair.pol.c_v) * transfer / prob
    check_density_matrices(_states(pop_h, pop_v, coherence))
    return 2.0 * coherence
