"""Brute-force validation of every closed form by direct state-vector
evolution of the full polarization x frequency x path state.

The frequency integral is discretized on a uniform grid with trapezoid
weights.  The evolution applies the beam-splitter Hadamards and the diagonal
coupling phases explicitly, then traces out (or conditions on) frequency and
path.  Since every coupling is diagonal in polarization, the frequency sum of
a path or port is one Fourier sum of its H-V coherence, taken for a whole
chunk of times at once; every state, conditional state and port weight at a
time is read from the same per-path polarization blocks, each of trace its
probability.  On the uniform grid each phase exp(i x omega) factorises into a
coarse and a fine one, with k = a w + b and w = isqrt(n - 1) + 1, so a time
costs about 2 sqrt(n) cos/sin, not n.  Every amplitude lives in that folded
layout: frequency k = a w + b at [a, b] of a rows x w array, zero-padded past
n.  Both stages start from the same folded start amplitudes; the output
stage's are their product with the coarse and fine phases of the arm delays,
mixed into the ports in place, and each block's weights g = psi_H psi_V^* are
written over its amplitudes.  A Fourier sum never forms the n phases: the
fine phases of a chunk multiply the (w, rows) transpose of g in one matrix
product, and the coarse phases weight the rows of the product.  Nothing here
uses the closed-form interferometer expressions; only the comparison harness
does, to quantify their agreement, over the cells of both stages at once.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import FrequencyDistribution, InterferometerConfig, _Value, effective_time
from .core import check_density_matrices, trace_distances
from .errors import ImpossibleOutcome
from .interferometer import _check_times, _closed_form_states, path_probabilities

DEFAULT_N_FREQ = 2001
HALF_WIDTH = 8.0  # of every grid around mu, in units of sigma

# distance, in units of 1/sigma, kept between the largest component delay and
# the alias period of the trapezoid rule; the alias then weighs exp(-50)
ALIAS_MARGIN = 10.0

# complex entries of the folded product per chunk of delays, delays x rows x
# blocks: 512 KiB, 184 times of both inside paths or both output ports at
# n_freq=8001 and 1170 at n_freq=201; the fine and coarse phases of a chunk
# are about as large again
CHUNK_ELEMENTS = 2 ** 15

_CONDITION_TOL = 1e-14

# how far, in ulps of the largest |omega|, a grid frequency may lie from the
# line through the first and last: linspace rounds each one by about one
_UNIFORM_ULPS = 4


class FrequencyGrid(_Value):
    """Quadrature discretization of the Gaussian spectrum.

    ``omegas`` are the sample frequencies, uniform within a few ulps, and
    ``weights`` the corresponding probability weights, which sum to one.
    The canonical grid uses at least 201 points over mu +- 8 sigma.
    """

    __slots__ = _FIELDS = ("omegas", "weights")
    omegas: np.ndarray
    weights: np.ndarray

    def __init__(self, omegas: np.ndarray, weights: np.ndarray):
        omegas = np.asarray(omegas, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if omegas.ndim != 1 or omegas.shape != weights.shape:
            raise ValueError("omegas and weights must be equal-length 1d arrays")
        if len(omegas) < 3:
            raise ValueError(f"omegas must hold at least 3 points, got {len(omegas)}")
        # each check is written so that NaN fails it
        if not np.all(np.diff(omegas) > 0):
            raise ValueError("omegas must be strictly increasing")
        object.__setattr__(self, "omegas", omegas)
        if not math.isfinite(self.step):
            raise ValueError(f"omegas must be finite, got ends {omegas[0]!r} and {omegas[-1]!r}")
        spread = np.max(np.abs(omegas - (omegas[0] + self.step * np.arange(len(omegas)))))
        if not spread <= _UNIFORM_ULPS * np.spacing(np.max(np.abs(omegas))):
            raise ValueError(f"omegas must be uniform: {spread!r} off the line of their ends")
        if not np.all(weights >= 0):
            raise ValueError("weights must be non-negative")
        if not abs(weights.sum() - 1.0) <= 1e-10:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        object.__setattr__(self, "weights", weights)

    @property
    def step(self) -> float:
        """Spacing h of the uniform omegas."""
        return (self.omegas[-1] - self.omegas[0]) / (len(self.omegas) - 1)

    @classmethod
    def build(cls, dist: FrequencyDistribution, n: int = DEFAULT_N_FREQ) -> "FrequencyGrid":
        """Uniform trapezoid grid of n >= 3 points over mu +- HALF_WIDTH * sigma.

        Weights are the Gaussian density times the trapezoid rule, rescaled to
        sum exactly to one so truncation never leaks probability; the uniform
        step is a common factor and drops out.
        """
        if n < 3:
            raise ValueError(f"n must be at least 3, got {n!r}")
        omegas = np.linspace(dist.mu - HALF_WIDTH, dist.mu + HALF_WIDTH, n)
        weights = np.exp(-0.5 * (omegas - dist.mu) ** 2)
        weights[[0, -1]] *= 0.5
        weights /= weights.sum()
        return cls(omegas, weights)


def max_component_delay(cfg: InterferometerConfig, times) -> np.ndarray:
    """Largest delay between any two of the four polarization-path components
    at each time: ``n * t_eff(arm) + n_out * t_eff(output)``, max minus min.

    It is the largest x of exp(i * omega * x) that the oracle's frequency sum
    has to resolve.
    """
    t = np.asarray(times, dtype=float)
    out = cfg.window_out
    t_out = effective_time(out, t)
    delays = [
        n * effective_time(window, t) + n_out * t_out
        for window in (cfg.window0, cfg.window1)
        for n, n_out in ((window.n_h, out.n_h), (window.n_v, out.n_v))
    ]
    return np.max(delays, axis=0) - np.min(delays, axis=0)


def alias_free_delay(grid: FrequencyGrid) -> float:
    """Largest component delay the trapezoid grid resolves: its alias period
    2*pi/h, at which the sum of e^(i*omega*x) repeats its value at x = 0, less
    ``ALIAS_MARGIN`` spectral widths."""
    return 2.0 * math.pi / grid.step - ALIAS_MARGIN


def _phase(x: np.ndarray) -> np.ndarray:
    """exp(i x) of a real array, with cos(x) and sin(x) written into the real
    and imaginary parts of a complex array."""
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _fold(n: int) -> tuple[int, int]:
    """The split k = a w + b of n grid indices: the fine length
    w = isqrt(n - 1) + 1 and the number of coarse rows, ceil(n / w)."""
    w = math.isqrt(n - 1) + 1
    return w, -(-n // w)


def _coarse_fine(x: np.ndarray, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """The coarse phases exp(i x omega_0) exp(i x a w h), of shape
    x.shape + (rows,), and the fine phases exp(i x b h), of shape
    x.shape + (w,), whose product is exp(i x omega_k) at k = a w + b.

    The rounding of x omega_0, the largest argument, is one phase common to
    all frequencies.
    """
    w, rows = _fold(len(grid.omegas))
    x = x[..., None]
    coarse = _phase(x * grid.omegas[0]) * _phase(x * (w * grid.step * np.arange(rows)))
    return coarse, _phase(x * (grid.step * np.arange(w)))


def _delays_per_chunk(n: int, blocks: int) -> int:
    """Delays summed per chunk: each adds rows x blocks entries to the folded
    product, and a chunk holds at most ``CHUNK_ELEMENTS``."""
    return max(1, CHUNK_ELEMENTS // (_fold(n)[1] * blocks))


def _fourier_sums(x: np.ndarray, g: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """sum_k g[j, k] exp(i x omega_k) of each block j at every delay of the
    1-D ``x``, of shape (len(x), blocks), without forming the n phases.

    ``g`` is folded: of shape (blocks, rows, w), entry [j, a, b] the weight
    of frequency k = a w + b, zero past n.  The sum is then sum_a coarse_a(x)
    sum_b fine_b(x) g[j, a, b]: each chunk of delays takes one matrix product
    of its fine phases with the (w, blocks x rows) transpose of g, no copy,
    whose rows the coarse phases weight and sum.
    """
    blocks, rows, w = g.shape
    folded = g.reshape(blocks * rows, w).T
    sums = np.empty((len(x), blocks), dtype=complex)
    per_chunk = _delays_per_chunk(len(grid.omegas), blocks)
    for lo in range(0, len(x), per_chunk):
        coarse, fine = _coarse_fine(x[lo : lo + per_chunk], grid)
        inner = (fine @ folded).reshape(len(fine), blocks, rows)
        sums[lo : lo + per_chunk] = (inner @ coarse[:, :, None])[..., 0]
    return sums


def _start_amplitudes(grid: FrequencyGrid) -> np.ndarray:
    """sqrt(p_k / 2), the amplitude of either inside path right after the
    input beam splitter before its polarization constant, folded: of shape
    (rows, w), entry [a, b] that of frequency k = a w + b, zero past n."""
    n = len(grid.omegas)
    w, rows = _fold(n)
    start = np.zeros(rows * w)
    start[:n] = np.sqrt(grid.weights / 2.0)
    return start.reshape(rows, w)


def _stage_blocks(
    cfg: InterferometerConfig, grid: FrequencyGrid, start: np.ndarray, times: np.ndarray,
    stage: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Polarization blocks, summed over frequency, each of trace its
    probability, of each inside path or output port of one stage: the
    populations [path, polarization] and the H-V coherences [time, path] at
    every one of ``times``, from the folded start amplitudes ``start``
    (``_start_amplitudes(grid)``).

    Every coupling is diagonal in polarization, so a block's populations,
    sum_w |psi|^2, do not change with time and are summed once.  Its H-V
    coherence is one Fourier sum sum_w g[w] exp(i x omega_w).  Inside, path j
    starts from amplitudes with no phase yet, and x = (n_h - n_v) times its
    window's coupling time.  Outside, both arm windows close before the
    output coupling opens: each port starts from the arm amplitudes at the
    output start mixed by the beam splitter, and x = (n_h - n_v) times the
    output coupling time, the same for both ports.  Those arm amplitudes are
    the start amplitudes times the coarse and the fine phases of the arm
    delays [polarization, arm], n times the arm's coupling time at the
    output start.  The amplitudes psi[polarization, path or port, a, b] are
    built in the folded layout of ``start``, the populations are read from
    them, and g = psi_H psi_V^* is written over the H amplitudes, the folded
    weights that the sums read, each chunk of delays one matrix product
    (``_fourier_sums``).
    """
    pol = cfg.pol
    c = np.array([pol.c_h * np.exp(1j * pol.theta), pol.c_v])
    if stage == "inside":
        # both paths start from the same amplitudes: one block, two delays
        psi = c[:, None, None, None] * start
        windows = (cfg.window0, cfg.window1)
        delays = np.stack([w.delta_n * effective_time(w, times) for w in windows], axis=1)
    elif stage == "outside":
        # both ports share one delay: two blocks
        out = cfg.window_out
        arm_delays = np.array([
            [w.n_h * effective_time(w, out.t_start) for w in (cfg.window0, cfg.window1)],
            [w.n_v * effective_time(w, out.t_start) for w in (cfg.window0, cfg.window1)],
        ])
        coarse, fine = _coarse_fine(arm_delays, grid)
        # the output beam splitter's 1/sqrt(2) joins the polarization constants
        coarse *= (c / np.sqrt(2.0))[:, None, None]
        psi = coarse[..., None] * fine[..., None, :]
        psi *= start
        # the ports, in place: arm 0 + arm 1, then arm 0 - arm 1
        arm0, arm1 = psi[:, 0], psi[:, 1]
        arm0 += arm1
        arm1 *= -2.0
        arm1 += arm0
        delays = out.delta_n * effective_time(out, times)
    else:
        raise ValueError(f"unknown stage {stage!r}")
    # sum |psi|^2 of each polarization and block, one dot product of its real
    # and imaginary parts with themselves
    parts = psi.view(float).reshape(-1, 2 * start.size)
    populations = np.array([part @ part for part in parts]).reshape(psi.shape[:2]).T
    g = np.multiply(psi[0], np.conjugate(psi[1], out=psi[1]), out=psi[0])
    coherence = _fourier_sums(delays.ravel(), g, grid).reshape(len(times), 2)
    return np.broadcast_to(populations, (2, 2)).copy(), coherence


def _time_major(states) -> tuple:
    """The cells (p_h, p_v, c), flat and time-major, of the locations whose
    ``states`` are (p_h, p_v, c) with the coherences c at every time."""
    p_h, p_v, coherences = zip(*states)
    coherence = np.stack(coherences, 1)
    return np.tile(p_h, len(coherence)), np.tile(p_v, len(coherence)), coherence.ravel()


def _impossible(norm) -> ImpossibleOutcome:
    return ImpossibleOutcome(f"conditioning weight {float(norm)!r} is zero within tolerance")


class OracleDeviation(NamedTuple):
    max_deviation: float
    probability_deviation: float


def oracle_compare(
    cfg: InterferometerConfig, grid: FrequencyGrid, times: Sequence[float]
) -> OracleDeviation:
    """Maximum disagreement between the closed forms and the brute force.

    Sweeps the (time, location) matrix of every location, comparing states
    by trace distance, and also compares the analytic port probabilities
    against the oracle port weights, which do not change with time, on every
    check.  Inside locations only use times up to the start of the output
    coupling, outside locations only times from it on.  A port the closed
    forms refuse as dark is skipped.  Both stages start from the same folded
    amplitudes; each sums its times in chunks of at most ``CHUNK_ELEMENTS``
    phases, and reads every location of a time from the same blocks.

    The states of both stages are conditioned, validated and compared as one
    batch.  The first cell, stage by stage from the inside one, time-major,
    in location order and simulated before closed form, that DensityMatrix
    would reject raises its ValueError; a simulated conditioning weight of
    zero raises ImpossibleOutcome.  Before anything is compared, ValueError
    refuses ``times`` that are empty or not 1-D, and names the first time
    that is NaN, infinite or negative, which no stage would take.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be 1-D, got shape {times.shape}")
    if not times.size:
        raise ValueError("times is empty: there is nothing to compare")
    for t in times[~((times >= 0) & (times < math.inf))].flat:
        _check_times(float(t))
        raise ValueError(f"time {float(t)!r} is negative")
    out_start = cfg.window_out.t_start
    stage_times = {"inside": times[times <= out_start], "outside": times[times >= out_start]}
    start = _start_amplitudes(grid)
    simulated_cells, reference_cells = [], []  # of each stage
    for stage, todo in stage_times.items():
        # the output stage is built also without times: its port weights,
        # the traces of its blocks, do not change with time
        if stage == "inside" and not len(todo):
            continue
        populations, coherence = _stage_blocks(cfg, grid, start, todo, stage)
        if stage == "outside":
            worst_prob = float(np.max(np.abs(populations.sum(1) - path_probabilities(cfg))))
        simulated_states, reference_states = [], []  # of each location
        for conditioning in (0, 1, None):
            try:
                reference_states.append(
                    _closed_form_states(cfg, stage, conditioning, todo, cfg.pol))
            except ImpossibleOutcome:  # a dark port
                continue
            # None traces out the path, an integer projects on that one
            if conditioning is None:
                (p_h, p_v), c = populations.sum(0), coherence.sum(1)
            else:
                (p_h, p_v), c = populations[conditioning], coherence[:, conditioning]
            simulated_states.append((p_h, p_v, c))
        simulated_cells.append(_time_major(simulated_states))
        reference_cells.append(_time_major(reference_states))
    p_h, p_v, c = (np.concatenate(x) for x in zip(*simulated_cells))
    reference = [np.concatenate(x) for x in zip(*reference_cells)]
    norm = p_h + p_v
    impossible = norm < _CONDITION_TOL
    # one rounded reciprocal scales populations and coherences alike
    inverse = 1.0 / np.where(impossible, 1.0, norm)
    simulated = (p_h * inverse, p_v * inverse, c * inverse)
    # the simulated state of a cell before its closed form
    cells = [np.stack(pair, axis=-1) for pair in zip(simulated, reference)]
    if impossible.any():
        k = int(np.argmax(impossible))
        check_density_matrices(*(x[:k] for x in cells))
        raise _impossible(norm[k])
    check_density_matrices(*cells)
    worst_state = float(np.max(trace_distances(reference, simulated)))
    return OracleDeviation(worst_state, worst_prob)
