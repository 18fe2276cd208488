"""Mach-Zehnder composition: joint and conditional polarization states inside
and outside the interferometer.

Inside, the photon takes a balanced superposition of two paths, each with its
own birefringent coupling.  The second beam splitter mixes the paths; the
shared outside coupling then acts identically on both output ports.  All
states are evaluated from closed forms built on the Gaussian decoherence
factor; the brute-force cross-check lives in the oracle module.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .channels import single_path_kappa
from .core import (
    DensityMatrix,
    InterferometerConfig,
    PolarizationState,
    _port_probabilities,
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


def _transfer(cfg: InterferometerConfig, weights, t):
    """The outside coherence transfer with one row of
    ``cfg.outside_terms.transfer_weights`` at scalar or array laboratory
    times t: e^(i mu s) sum_i w_i e^(-(b_i + s)^2 / 2) over the centres b =
    (d_0, d_1, a_1, a_2), with s = dn_out T after a total outside
    interaction time T.  A float t is evaluated without numpy.  Where every
    Gaussian underflows the transfer is exactly 0, also where mu s
    overflows."""
    terms = cfg.outside_terms
    s = terms.dn_out * effective_time(cfg.window_out, t)
    b0, b1, b2, b3 = terms.d_0, terms.d_1, terms.a_1, terms.a_2
    w0, w1, w2, w3 = weights
    if type(s) is float:
        x0, x1, x2, x3 = b0 + s, b1 + s, b2 + s, b3 + s
        m = (w0 * math.exp(-0.5 * (x0 * x0)) + w1 * math.exp(-0.5 * (x1 * x1))
             + w2 * math.exp(-0.5 * (x2 * x2)) + w3 * math.exp(-0.5 * (x3 * x3)))
        return cmath.exp(1j * (cfg.dist.mu * s)) * m if m else 0j
    with np.errstate(over="ignore", invalid="ignore"):
        g0, g1, g2, g3 = np.exp(-0.5 * np.square(np.add.outer((b0, b1, b2, b3), s)))
        m = w0 * g0 + w1 * g1 + w2 * g2 + w3 * g3
        out = np.where(m == 0.0, 0j, np.exp(1j * (cfg.dist.mu * s)) * m)
    return out if out.ndim else complex(out)


def _lambda_of_total_time(cfg: InterferometerConfig, total):
    """Cross-term transfer after a total outside interaction time, whose
    cancelling cross delays produce the recoherence peak: the sum of the
    decoherence factors at the two shifted cross delays."""
    terms, dist = cfg.outside_terms, cfg.dist
    shift = terms.dn_out * total
    return kappa_of_delay(dist, terms.a_1 + shift) + kappa_of_delay(dist, terms.a_2 + shift)


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
    the cross-term transfer, at scalar or array laboratory times, evaluated
    as one Gaussian sum of the port's row of ``cfg.outside_terms``'
    ``transfer_weights``.  It is the coherence factor g of the port's Kraus
    map (``maps.kraus_conditional``), which multiplies the input coherence
    c_h e^(i theta) c_v^*.  A port index other than 0 or 1, or a time that
    is not finite, raises ValueError.
    """
    _check_index("port", jp)
    _check_times(t)
    return _transfer(cfg, cfg.outside_terms.transfer_weights[jp], t)


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
    return cfg._probabilities


def _lacks_coherence(weight_h: float, weight_v: float) -> bool:
    """Whether a port with these interference weights carries no H-V
    coherence: a weight below ZERO_F_TOL takes no light of its polarization."""
    return weight_h < ZERO_F_TOL or weight_v < ZERO_F_TOL


def _bright_port(cfg: InterferometerConfig, jp: int, pol: PolarizationState) -> float:
    """The conditioning probability of port jp for the input pol; a dark port
    raises.  The configured polarization's is read from the config, which
    keeps its probabilities."""
    if pol is cfg.pol:
        prob = cfg._probabilities[jp]
    else:
        prob = _port_probabilities(cfg.outside_terms, pol)[jp]
    if prob < DARK_PORT_TOL:
        raise ImpossibleOutcome(
            f"output port {jp} has probability {prob!r}; cannot condition on it"
        )
    return prob


def conditional_state_outside(cfg: InterferometerConfig, jp: int, t: float) -> DensityMatrix:
    """State on output port jp at laboratory time t.

    Before the outside coupling opens the accumulated outside delay is zero,
    so the same expression also gives the state right at the exit.  Its
    populations are time-independent because only dephasing acts after the
    output beam splitter.  The port's evolution before the division by its
    probability, trace-non-increasing, is ``maps.kraus_conditional``.
    """
    return _state(cfg, "outside", jp, t)


def averaged_state_outside(cfg: InterferometerConfig, t: float) -> DensityMatrix:
    """Port-averaged state outside the interferometer.

    Ignoring the port (erasing which-path information) removes every
    interference term: the coherence is the mean of the two path decoherence
    factors, each with the outside delay added to its full inside delay.
    """
    return _state(cfg, "outside", None, t)


def _closed_form(cfg: InterferometerConfig, stage: str, conditioning, times):
    """(transfer, weight_h, weight_v) of the closed-form state at a (stage,
    conditioning) location before the division by its conditioning
    probability, the transfer a scalar or an array as ``times`` is.

    The state is [[weight_h |c_h|^2, c_h e^(i theta) c_v^* transfer],
    [conjugate, weight_v |c_v|^2]].  The weights are one except on an output
    port, where they are its interference weights and the trace is its
    probability; a port without H-V coherence (_lacks_coherence) has a
    transfer of exactly zero.  An index other than 0 or 1, or a time not finite, raises
    ValueError.
    """
    if stage == "inside" or conditioning is None:
        _check_times(times)  # coherence_transfer checks a port's
    if stage == "inside":
        if conditioning is not None:
            _check_index("path", conditioning)
            window = (cfg.window0, cfg.window1)[conditioning]
            return single_path_kappa(window, cfg.dist, times), 1.0, 1.0
        k0 = single_path_kappa(cfg.window0, cfg.dist, times)
        k1 = single_path_kappa(cfg.window1, cfg.dist, times)
        return (k0 + k1) / 2.0, 1.0, 1.0
    if conditioning is None:
        return _transfer(cfg, cfg.outside_terms.transfer_weights[2], times), 1.0, 1.0
    transfer = coherence_transfer(cfg, conditioning, times)
    weight_h, weight_v = cfg.outside_terms.port_weights[conditioning]
    if _lacks_coherence(weight_h, weight_v):
        transfer = np.zeros_like(transfer)  # not its roundoff
    return transfer, weight_h, weight_v


def _closed_form_states(cfg: InterferometerConfig, stage: str, conditioning, times,
                        pol: PolarizationState) -> tuple:
    """The closed-form states, of unit trace, of the input pol at a (stage,
    conditioning) location as (pop_h, pop_v, coherence), the coherence one
    per entry of ``times``: _closed_form's state divided by its conditioning
    probability, which is one except on an output port, where a dark port
    raises ImpossibleOutcome.  Only the input populations, coherence and
    port probabilities read pol."""
    transfer, weight_h, weight_v = _closed_form(cfg, stage, conditioning, times)
    on_port = stage == "outside" and conditioning is not None
    scale = 1.0 / (_bright_port(cfg, conditioning, pol) if on_port else 1.0)
    return (weight_h * pol.population_h * scale, weight_v * pol.population_v * scale,
            pol.coherence * transfer * scale)


def _state(cfg: InterferometerConfig, stage: str, conditioning, t: float) -> DensityMatrix:
    """The closed-form state at a (stage, conditioning) location at one time.
    Inside, t must lie in [0, window_out.t_start]."""
    if stage == "inside":
        _check_inside_time(cfg, t)
    return DensityMatrix(*_closed_form_states(cfg, stage, conditioning, t, cfg.pol))


def coherence_factors(cfg: InterferometerConfig, location: str, times) -> np.ndarray:
    """Coherence factor of the |+> / |-> pair at a location, at every time.

    The off-diagonal element <H|rho_+ - rho_-|V> of the pair's states: 2 c_h
    c_v^* (one, up to rounding) times the coherence transfer divided by the
    pair's conditioning probability, that is kappa_j on inside path j,
    (kappa_0 + kappa_1) / 2 jointly inside, f_jp / p_jp on output port jp,
    and the mean of the two shifted path factors jointly outside.  Its
    modulus is the pair's trace distance.

    Every pair state is checked against the tolerances that DensityMatrix
    enforces, and a violation raises ValueError, as do inside locations at
    times outside [0, window_out.t_start].  A dark output port raises
    ImpossibleOutcome.
    """
    if location not in LOCATION_STAGES:
        raise ValueError(f"unknown location {location!r}")
    stage, conditioning = LOCATION_STAGES[location]
    times = np.asarray(times, dtype=float)
    if stage == "inside" and times.size:
        _check_inside_time(cfg, times.min())
        _check_inside_time(cfg, times.max())
    pop_h, pop_v, coherence = _closed_form_states(cfg, stage, conditioning, times,
                                                  PolarizationState.plus())
    check_density_matrices(pop_h, pop_v, coherence)
    return 2.0 * np.asarray(coherence)
