"""Brute-force validation of every closed form by direct state-vector
evolution of the full polarization x frequency x path state.

The frequency integral is discretized on a uniform grid with trapezoid
weights.  The evolution applies the beam-splitter Hadamards and the diagonal
coupling phases explicitly, then traces out (or conditions on) frequency and
path.  Since every coupling is diagonal in polarization, the frequency sum of
a path or port is one Fourier sum of its H-V coherence, taken for a whole
chunk of times at once; every state, conditional state and port weight at a
time is read from the same unnormalized per-path polarization blocks.  On the
uniform grid each phase exp(i x omega) factorises into a coarse and a fine
one, so a time costs about 2 sqrt(n) cos/sin, not n: the phases are formed
as a rows x w outer product, padded by fewer than w = isqrt(n - 1) + 1
entries, and cut to n.
Nothing here uses the closed-form interferometer expressions; only the
comparison harness does, to quantify their agreement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import FrequencyDistribution, InterferometerConfig, effective_time
from .core import check_density_matrices, trace_distances
from .errors import ImpossibleOutcome
from .interferometer import LOCATION_STAGES, _check_times, _closed_form_states, path_probabilities

DEFAULT_N_FREQ = 2001
DEFAULT_HALF_WIDTH = 8.0  # in units of sigma

# distance, in units of 1/sigma, kept between the largest component delay and
# the alias period of the trapezoid rule; the alias then weighs exp(-50)
ALIAS_MARGIN = 10.0

# complex phases exp(i x omega) per chunk of times: 512 KiB, two times inside
# and four outside at n_freq=8001, 81 and 163 at n_freq=201; the rows x w
# outer product behind them pads each time by fewer than sqrt(n_freq) + 1
# entries, 0.1% more at n_freq=8001 and 4.5% at 201
CHUNK_ELEMENTS = 2 ** 15

_CONDITION_TOL = 1e-14

# how far, in ulps of the largest |omega|, a grid frequency may lie from the
# line through the first and last: linspace rounds each one by about one
_UNIFORM_ULPS = 4


@dataclass(frozen=True)
class FrequencyGrid:
    """Quadrature discretization of the Gaussian spectrum.

    ``omegas`` are the sample frequencies, uniform within a few ulps, and
    ``weights`` the corresponding probability weights, normalized to unit
    total mass.  The canonical grid uses at least 201 points over
    mu +- 8 sigma.
    """

    omegas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if omegas.ndim != 1 or omegas.shape != weights.shape or len(omegas) < 3:
            raise ValueError("omegas and weights must be equal-length 1d arrays")
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
    def build(
        cls,
        dist: FrequencyDistribution,
        n: int = DEFAULT_N_FREQ,
        half_width: float = DEFAULT_HALF_WIDTH,
    ) -> "FrequencyGrid":
        """Uniform trapezoid grid over mu +- half_width * sigma.

        Weights are the Gaussian density times the trapezoid rule, rescaled to
        sum exactly to one so truncation never leaks probability; the uniform
        step is a common factor and drops out.
        """
        omegas = np.linspace(dist.mu - half_width, dist.mu + half_width, n)
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


def _grid_phases(x: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """exp(i x omega) at every grid frequency, of shape x.shape + (n,), from
    about 2 sqrt(n) cos/sin per x.

    With k = a w + b and w = isqrt(n - 1) + 1, omega_k = omega_0 + a w h + b h
    on the uniform grid, so the phases are the outer product of the coarse
    exp(i x omega_0) exp(i x a w h) and the fine exp(i x b h), rows x w of
    them, cut to n.  The rounding of x omega_0, the largest argument, is then
    one phase common to all frequencies.
    """
    n = len(grid.omegas)
    w = math.isqrt(n - 1) + 1
    rows = -(-n // w)
    x = x[..., None]
    coarse = _phase(x * grid.omegas[0]) * _phase(x * (w * grid.step * np.arange(rows)))
    fine = _phase(x * (grid.step * np.arange(w)))
    return (coarse[..., None] * fine[..., None, :]).reshape(*x.shape[:-1], -1)[..., :n]


def _initial_amplitudes(cfg: InterferometerConfig, grid: FrequencyGrid) -> np.ndarray:
    """Amplitudes a[polarization, frequency] of either inside path right after
    the input beam splitter, before any coupling."""
    c = np.array([cfg.pol.c_h * np.exp(1j * cfg.pol.theta), cfg.pol.c_v])
    return c[:, None] * np.sqrt(grid.weights / 2.0)


def _amplitudes(cfg: InterferometerConfig, grid: FrequencyGrid, times: np.ndarray) -> np.ndarray:
    """Path-major amplitude array psi[time, inside path, polarization,
    frequency] at every one of ``times``: each polarization block of a path
    is contiguous."""
    start = _initial_amplitudes(cfg, grid)
    psi = np.empty((len(times), 2, 2, len(grid.omegas)), dtype=complex)
    for j, window in enumerate((cfg.window0, cfg.window1)):
        coupling = effective_time(window, times)
        for lam, n_lam in enumerate((window.n_h, window.n_v)):
            psi[:, j, lam] = start[lam] * _grid_phases(n_lam * coupling, grid)
    return psi


def _times_per_chunk(n_freq: int, stage: str) -> int:
    """Times evolved per chunk: each adds n_freq phases per inside path, or
    n_freq shared by both output ports, and a chunk holds at most
    ``CHUNK_ELEMENTS`` phases."""
    return max(1, CHUNK_ELEMENTS // ((2 if stage == "inside" else 1) * n_freq))


def _path_blocks(
    cfg: InterferometerConfig, grid: FrequencyGrid, times: np.ndarray, stage: str
) -> np.ndarray:
    """Unnormalized polarization blocks rho[time, path, a, b], summed over
    frequency, of each inside path or output port at every one of ``times``.

    Every coupling is diagonal in polarization, so a block's populations,
    sum_w |psi|^2, do not change with time and are summed once.  Its H-V
    coherence is one Fourier sum sum_w g[w] exp(i x omega_w).  Inside, path j
    starts from amplitudes with no phase yet, and x = (n_h - n_v) times its
    window's coupling time.  Outside, both arm windows close before the
    output coupling opens: each port starts from the amplitudes at the output
    start mixed by the beam splitter, and x = (n_h - n_v) times the output
    coupling time, the same for both ports.  The sums run over chunks of
    times, each one phase array through one matrix product.
    """
    if stage == "inside":
        psi = np.stack([_initial_amplitudes(cfg, grid)] * 2)
        windows = (cfg.window0, cfg.window1)
        delays = np.stack([w.delta_n * effective_time(w, times) for w in windows], axis=1)
    elif stage == "outside":
        out = cfg.window_out
        psi = _amplitudes(cfg, grid, np.array([out.t_start]))[0]
        psi = np.stack([psi[0] + psi[1], psi[0] - psi[1]]) / np.sqrt(2.0)
        delays = out.delta_n * effective_time(out, times)[:, None]
    else:
        raise ValueError(f"unknown stage {stage!r}")
    n = len(grid.omegas)
    # g[delay, w, block]: one column of delays per inside path, or one column
    # shared by both output ports
    g = (psi[:, 0] * psi[:, 1].conj()).reshape(delays.shape[1], -1, n).swapaxes(1, 2)
    coherence = np.empty((len(times), 2), dtype=complex)
    per_chunk = _times_per_chunk(n, stage)
    for lo in range(0, len(times), per_chunk):
        x = delays[lo : lo + per_chunk].T
        sums = _grid_phases(x, grid) @ g
        coherence[lo : lo + per_chunk] = sums.swapaxes(0, 1).reshape(-1, 2)
    blocks = np.empty((len(times), 2, 2, 2), dtype=complex)
    blocks[:, :, [0, 1], [0, 1]] = np.sum(psi.real**2 + psi.imag**2, axis=-1)
    blocks[:, :, 0, 1] = coherence
    blocks[:, :, 1, 0] = coherence.conj()
    return blocks


def _conditioned(blocks: np.ndarray, conditionings) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized states rho[time, k, a, b] under each of the
    ``conditionings`` (None traces out the path, an integer projects on that
    one), and the weight of each."""
    rho = np.stack([blocks.sum(axis=1) if c is None else blocks[:, c] for c in conditionings], 1)
    return rho, rho[..., 0, 0].real + rho[..., 1, 1].real


def _impossible(norm) -> ImpossibleOutcome:
    return ImpossibleOutcome(f"conditioning weight {float(norm)!r} is zero within tolerance")


def _port_weights(blocks: np.ndarray) -> np.ndarray:
    """Weights [..., port] of the output ports: the trace of each
    unnormalized block."""
    return np.real(np.trace(blocks, axis1=-2, axis2=-1))


class OracleDeviation(NamedTuple):
    max_deviation: float
    probability_deviation: float


def oracle_compare(
    cfg: InterferometerConfig, grid: FrequencyGrid, times: Sequence[float]
) -> OracleDeviation:
    """Maximum disagreement between the closed forms and the brute force.

    Sweeps the (time, location) matrix of every location, comparing states
    by trace distance, and also compares the analytic port probabilities
    against the oracle port weights.  Inside locations only use times up to
    the start of the output coupling, outside locations only times from it
    on.  A port the closed forms refuse as dark is skipped.  Each stage sums
    its times in chunks of at most ``CHUNK_ELEMENTS`` phases, and reads every
    location of a time from the same blocks.

    A stage's states are validated and compared as one batch.  The first
    cell, in (time, location) order and simulated before closed form, that
    DensityMatrix would reject raises its ValueError; a simulated
    conditioning weight of zero raises ImpossibleOutcome.  The first time
    that is NaN, infinite or negative, which no stage would take, raises
    ValueError naming it before anything is compared.
    """
    times = np.asarray(times, dtype=float)
    for t in times[~((times >= 0) & (times < math.inf))].flat:
        _check_times(float(t))
        raise ValueError(f"time {float(t)!r} is negative")
    out_start = cfg.window_out.t_start
    stage_times = {
        "inside": times[times <= out_start],
        "outside": times[times >= out_start],
    }
    worst_state = 0.0
    worst_prob = 0.0
    for stage, todo in stage_times.items():
        references = {}  # closed forms by conditioning; a dark port has none
        for here, c in LOCATION_STAGES.values():
            if here == stage and len(todo):
                try:
                    references[c] = _closed_form_states(cfg, stage, c, todo)
                except ImpossibleOutcome:
                    pass
        if not references:
            continue
        blocks = _path_blocks(cfg, grid, todo, stage)
        rho, norm = _conditioned(blocks, list(references))
        impossible = norm < _CONDITION_TOL
        simulated = rho / np.where(impossible, 1.0, norm)[..., None, None]
        reference = np.stack(list(references.values()), 1)
        # cells in (time, location) order, the simulated state first
        cells = np.stack([simulated, reference], axis=2).reshape(-1, 2, 2)
        first = np.flatnonzero(impossible)
        if first.size:
            check_density_matrices(cells[: 2 * first[0]])
            raise _impossible(norm.flat[first[0]])
        check_density_matrices(cells)
        worst_state = max(worst_state, float(np.max(trace_distances(reference, simulated))))
        if stage == "outside":
            worst_prob = float(np.max(np.abs(_port_weights(blocks) - path_probabilities(cfg))))
    return OracleDeviation(worst_state, worst_prob)
