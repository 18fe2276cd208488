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

from .core import (
    DensityMatrix,
    InterferometerConfig,
    PolarizationState,
    check_density_matrices,
    kappa_of_delay,
)
from .errors import ImpossibleOutcome, ZeroCoherenceFactor

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
# the location of each (stage, conditioning)
_LOCATIONS = {stage: location for location, stage in LOCATION_STAGES.items()}


def interference_kappas(cfg: InterferometerConfig) -> tuple[float, float]:
    """Real interference weights (kappa_H, kappa_V) at the output beam splitter,
    time-independent Python floats read from ``cfg.outside_terms``: the
    cross-terms between the two inside paths at the full coupling durations."""
    return cfg.outside_terms.kappa_h, cfg.outside_terms.kappa_v


def _transfer(form: tuple, t):
    """The outside coherence transfer of a location's ``_form`` at an array
    of laboratory times t, 0-d included: e^(i mu s) sum_i w_i
    e^(-(b_i + s)^2 / 2) over the centres b = (d_0, d_1, a_1, a_2), with s =
    dn_out T after a total outside interaction time T.  Where every Gaussian
    underflows the transfer is exactly 0, also where mu s overflows."""
    start, end, b0, b1, b2, b3, dn, w0, w1, w2, w3 = form[2]
    s = dn * (np.asarray(t, dtype=float).clip(start, end) - start)  # as effective_time
    with np.errstate(over="ignore", invalid="ignore"):
        g0, g1, g2, g3 = np.exp(-0.5 * np.square(np.add.outer((b0, b1, b2, b3), s)))
        m = w0 * g0 + w1 * g1 + w2 * g2 + w3 * g3
        out = np.where(m == 0.0, 0j, np.exp(1j * (form[1].mu * s)) * m)
    return out if out.ndim else complex(out)


def _lambda_of_total_time(cfg: InterferometerConfig, total):
    """Cross-term transfer after a total outside interaction time, whose
    cancelling cross delays produce the recoherence peak: the sum of the
    decoherence factors at the two shifted cross delays."""
    terms, dist = cfg.outside_terms, cfg.dist
    shift = terms.dn_out * total
    return kappa_of_delay(dist, terms.a_1 + shift) + kappa_of_delay(dist, terms.a_2 + shift)


def _check_index(kind: str, j) -> None:
    """Raise ValueError naming j unless it is the integer 0 or 1, a Python or
    numpy int but not a bool, of an inside path or output port (kind)."""
    if not (type(j) is int or isinstance(j, np.integer)) or j not in (0, 1):
        raise ValueError(f"{kind} index {j!r} is neither 0 nor 1")


def _check_times(times) -> None:
    """Raise ValueError naming the first time that is NaN or infinite."""
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
    if isinstance(t, (float, int, np.number)):
        return _evaluate(cfg, ("path0_out", "path1_out")[jp], t)[1]
    return _closed_form(cfg, "outside", jp, t)[0]


def joint_state_inside(cfg: InterferometerConfig, t: float) -> DensityMatrix:
    """Path-averaged state inside the interferometer (quantum erasure).

    Equal-weight mixture of the two single-path dephasing channels: the
    populations stay put and the coherence carries the mean of the two
    decoherence factors.
    """
    return _state(cfg, "joint_inside", t)


def path_state_inside(cfg: InterferometerConfig, j: int, t: float) -> DensityMatrix:
    """State conditioned on finding the photon on inside path j.

    Each path is taken with probability exactly 1/2, and conditioning gives
    back the plain single-path dephasing channel of that arm.
    """
    _check_index("path", j)
    return _state(cfg, ("path0", "path1")[j], t)


def _port_probability(weights: tuple[float, float], pol: PolarizationState) -> float:
    """The trace of a port's state for the input pol: its population weights
    (h, v) weighted by the input populations, over the input's trace, so a
    nearly dark port keeps its precision; a float also for numpy amplitudes."""
    h, v = weights
    p_h, p_v = pol.population_h, pol.population_v
    return float((h * p_h + v * p_v) / (p_h + p_v))


def path_probabilities(cfg: InterferometerConfig) -> tuple[float, float]:
    """Detection probabilities of the two output ports: ``_port_probability``,
    which computes every port probability, of each row of
    ``cfg.outside_terms.port_weights``; they sum to one within rounding."""
    return tuple(_port_probability(weights, cfg.pol) for weights in cfg.outside_terms.port_weights)


def conditional_state_outside(cfg: InterferometerConfig, jp: int, t: float) -> DensityMatrix:
    """State on output port jp at laboratory time t.

    Before the outside coupling opens the accumulated outside delay is zero,
    so the same expression also gives the state right at the exit.  Its
    populations are time-independent because only dephasing acts after the
    output beam splitter.  The port's evolution before the division by its
    probability, trace-non-increasing, is ``maps.kraus_conditional``.
    """
    _check_index("port", jp)
    return _state(cfg, ("path0_out", "path1_out")[jp], t)


def averaged_state_outside(cfg: InterferometerConfig, t: float) -> DensityMatrix:
    """Port-averaged state outside the interferometer.

    Ignoring the port (erasing which-path information) removes every
    interference term: the coherence is the mean of the two path decoherence
    factors, each with the outside delay added to its full inside delay.
    """
    return _state(cfg, "joint_out", t)


def _closed_form(cfg: InterferometerConfig, stage: str, conditioning, times):
    """(transfer, (weight_h, weight_v), lacking) at a (stage, conditioning)
    location at an array of ``times``, read from the location's ``_form``:
    the state [[weight_h |c_h|^2, c_h e^(i theta) c_v^* transfer],
    [conjugate, weight_v |c_v|^2]] before the division by its conditioning
    probability (``_closed_form_states``), and the no-coherence verdict.
    Every time is checked first: inside, one outside [0, window_out.t_start]
    raises ValueError, and then one that is not finite.  The caller checks
    the conditioning."""
    if stage == "inside":
        stop = cfg.window_out.t_start
        for t in (np.min(times), np.max(times)) if np.size(times) else ():
            if t < 0 or t > stop:
                raise ValueError(f"t={t} outside the inside region [0, {stop}]")
    _check_times(times)
    location = _LOCATIONS[stage, conditioning]
    form = cfg.__dict__.get("_form_" + location) or _form(cfg, location)
    if form[0] is None:
        return _transfer(form, times), form[3], form[5]
    k = [kappa_of_delay(form[1], dn * (np.asarray(times, dtype=float).clip(start, end) - start))
         for start, end, dn in form[2]]  # as single_path_kappa
    return (k[0] if len(k) == 1 else (k[0] + k[1]) / 2.0), form[3], form[5]


def _closed_form_states(cfg: InterferometerConfig, stage: str, conditioning, times,
                        pol: PolarizationState) -> tuple:
    """The unit-trace states of the input pol at a (stage, conditioning)
    location as (pop_h, pop_v, coherence), the coherence an array as
    ``times`` is: ``_closed_form`` at ``times`` through ``_pol_terms``, and
    exactly zero, not its roundoff, on a port without H-V coherence."""
    transfer, weights, lacking = _closed_form(cfg, stage, conditioning, times)
    if lacking:
        transfer = np.zeros_like(transfer)
    port = conditioning if stage == "outside" else None
    pop_h, pop_v, coherence, scale = _pol_terms(port, weights, pol)
    return pop_h, pop_v, coherence * transfer * scale


def _pol_terms(port, weights: tuple[float, float], pol: PolarizationState) -> tuple:
    """(pop_h, pop_v, coherence, scale) of the input pol at a location with
    population weights (h, v): scale is 1 over the probability of output
    port ``port`` (``_port_probability``), or one off a port (None), and the
    populations are weighted and scaled; a dark port raises ImpossibleOutcome."""
    prob = 1.0 if port is None else _port_probability(weights, pol)
    if prob < DARK_PORT_TOL:
        raise ImpossibleOutcome(
            f"output port {port} has probability {prob!r}; cannot condition on it")
    scale = 1.0 / prob
    return (weights[0] * pol.population_h * scale, weights[1] * pol.population_v * scale,
            pol.coherence, scale)


def _form(cfg: InterferometerConfig, location: str, t=0.0) -> tuple:
    """The scalar form of a location: (stop, dist, sum, weights, state,
    lacking), every number of its states fixed over time, kept on cfg as
    ``outside_terms`` is and built outside only for a finite time t, so the
    time is checked before the table.  stop ends the inside region (None
    outside); sum holds each inside window's (t_start, t_stop, delta_n), or
    the output window's ends, the centres b, dn_out and the transfer
    weights; weights are a port's population weights, else ones; state is
    _pol_terms for cfg.pol, or a dark port's message; lacking says that a
    port carries no H-V coherence: a weight below ZERO_F_TOL takes no light
    of its polarization."""
    stage, port = LOCATION_STAGES[location]
    weights, windows = (1.0, 1.0), (cfg.window0, cfg.window1)
    if stage == "inside":
        gaussians = tuple((w.t_start, w.t_stop, w.delta_n) for w in (
            windows if port is None else windows[port:port + 1]))
        stop, port = cfg.window_out.t_start, None
    else:
        if not math.isfinite(t):
            _check_times(t)
        terms, w = cfg.outside_terms, cfg.window_out
        stop, gaussians = None, (w.t_start, w.t_stop, *terms[:5],  # d_0, d_1, a_1, a_2, dn_out
                                 *terms.transfer_weights[2 if port is None else port])
        weights = weights if port is None else terms.port_weights[port]
    try:
        state = _pol_terms(port, weights, cfg.pol)
    except ImpossibleOutcome as exc:
        state = str(exc)
    lacking = weights[0] < ZERO_F_TOL or weights[1] < ZERO_F_TOL
    form = cfg.__dict__["_form_" + location] = stop, cfg.dist, gaussians, weights, state, lacking
    return form


def _evaluate(cfg: InterferometerConfig, location: str, t) -> tuple:
    """(form, transfer) of a location at a scalar time t, in float64: its
    ``_form`` and one Gaussian sum of it, bit for bit the array form's.  t
    is checked first, in the array form's order: inside [0, stop], then
    finite."""
    form = cfg.__dict__.get("_form_" + location) or _form(cfg, location, t)
    stop, dist, gaussians = form[0], form[1], form[2]
    if stop is not None and (t < 0 or t > stop):
        raise ValueError(f"t={t} outside the inside region [0, {stop}]")
    if not math.isfinite(t := float(t)):
        _check_times(t)
    if stop is not None:
        k = []
        for start, end, dn in gaussians:
            u = start if start > t else t
            x = dn * ((end if end < u else u) - start)  # as single_path_kappa
            k.append(cmath.exp(complex(-0.5 * (x * x), dist.mu * x)))
        return form, k[0] if len(k) == 1 else (k[0] + k[1]) / 2.0
    start, end, b0, b1, b2, b3, dn, w0, w1, w2, w3 = gaussians
    t = start if start > t else t
    s = dn * ((end if end < t else t) - start)  # as effective_time
    x0, x1, x2, x3 = b0 + s, b1 + s, b2 + s, b3 + s
    m = (w0 * math.exp(-0.5 * (x0 * x0)) + w1 * math.exp(-0.5 * (x1 * x1))
         + w2 * math.exp(-0.5 * (x2 * x2)) + w3 * math.exp(-0.5 * (x3 * x3)))
    return form, cmath.exp(1j * (dist.mu * s)) * m if m else 0j


def _port_terms(cfg: InterferometerConfig, jp: int, t) -> tuple:
    """(f, h, v) of port jp at time t, read from the port's scalar form: its
    coherence transfer and its interference weights.  A port index other
    than 0 or 1 raises ValueError, and a port without H-V coherence
    ZeroCoherenceFactor."""
    _check_index("port", jp)
    form, f = _evaluate(cfg, ("path0_out", "path1_out")[jp], t)
    h, v = form[3]
    if form[5]:
        raise ZeroCoherenceFactor(f"port {jp} has no H-V coherence: weights ({h!r}, {v!r})")
    return f, h, v


def _state(cfg: InterferometerConfig, location: str, t) -> DensityMatrix:
    """The closed-form state at a location at one time, from its scalar form."""
    form, transfer = _evaluate(cfg, location, t)
    if type(form[4]) is str:
        raise ImpossibleOutcome(form[4])
    pop_h, pop_v, coherence, scale = form[4]
    return DensityMatrix(pop_h, pop_v, coherence * (0j if form[5] else transfer) * scale)


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
    pop_h, pop_v, coherence = _closed_form_states(
        cfg, stage, conditioning, np.asarray(times, dtype=float), PolarizationState.plus())
    check_density_matrices(pop_h, pop_v, coherence)
    return 2.0 * np.asarray(coherence)
