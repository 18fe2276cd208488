"""Brute-force validation of every closed form by direct state-vector
evolution of the full polarization x frequency x path state.

The frequency integral is discretized on a uniform grid with trapezoid
weights.  The evolution applies the beam-splitter Hadamards and the diagonal
coupling phases explicitly, then traces out (or conditions on) frequency and
path.  Amplitudes are built for a whole chunk of times at once; every state,
conditional state and port weight at a time is read from the same
unnormalized per-path polarization blocks.  Nothing here uses the closed-form
interferometer expressions; only the comparison harness does, to quantify
their agreement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import DensityMatrix, FrequencyDistribution, InterferometerConfig, effective_time
from .errors import ImpossibleOutcome

DEFAULT_N_FREQ = 2001
DEFAULT_HALF_WIDTH = 8.0  # in units of sigma

# distance, in units of 1/sigma, kept between the largest component delay and
# the alias period of the trapezoid rule; the alias then weighs exp(-50)
ALIAS_MARGIN = 10.0

# complex elements of one amplitude array psi[time, ...] per chunk of times:
# 512 KiB, one time at n_freq=8001 and about forty at n_freq=201
CHUNK_ELEMENTS = 2 ** 15

_CONDITION_TOL = 1e-14


@dataclass(frozen=True)
class FrequencyGrid:
    """Quadrature discretization of the Gaussian spectrum.

    ``omegas`` are the sample frequencies and ``weights`` the corresponding
    probability weights, normalized to unit total mass.  The canonical grid
    uses at least 201 points over mu +- 8 sigma.
    """

    omegas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if omegas.ndim != 1 or omegas.shape != weights.shape or len(omegas) < 3:
            raise ValueError("omegas and weights must be equal-length 1d arrays")
        if np.any(np.diff(omegas) <= 0):
            raise ValueError("omegas must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def build(
        cls,
        dist: FrequencyDistribution,
        n: int = DEFAULT_N_FREQ,
        half_width: float = DEFAULT_HALF_WIDTH,
    ) -> "FrequencyGrid":
        """Uniform trapezoid grid over mu +- half_width * sigma.

        Weights are the Gaussian density times the trapezoid rule, rescaled to
        sum exactly to one so truncation never leaks probability.
        """
        omegas = np.linspace(
            dist.mu - half_width * dist.sigma, dist.mu + half_width * dist.sigma, n
        )
        pdf = np.exp(-0.5 * ((omegas - dist.mu) / dist.sigma) ** 2)
        step = np.full(n, omegas[1] - omegas[0])
        step[0] *= 0.5
        step[-1] *= 0.5
        weights = pdf * step
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


def alias_free_delay(cfg: InterferometerConfig, grid: FrequencyGrid) -> float:
    """Largest component delay the trapezoid grid resolves: its alias period
    2*pi/h, at which the sum of e^(i*omega*x) repeats its value at x = 0, less
    ``ALIAS_MARGIN`` spectral widths."""
    step = (grid.omegas[-1] - grid.omegas[0]) / (len(grid.omegas) - 1)
    return 2.0 * math.pi / step - ALIAS_MARGIN / cfg.dist.sigma


def _amplitudes_inside(
    cfg: InterferometerConfig, grid: FrequencyGrid, t
) -> np.ndarray:
    """Amplitude array psi[polarization, frequency, inside path] at time t.

    An array of times adds a leading time axis: psi[time, polarization,
    frequency, path].
    """
    t = np.asarray(t, dtype=float)
    times = t.reshape(-1)
    om = grid.omegas
    amp = np.sqrt(grid.weights)
    c = (cfg.pol.c_h * np.exp(1j * cfg.pol.theta), cfg.pol.c_v)
    # stored as [time, path, polarization, frequency], so that each
    # polarization block of a path is contiguous for the reduction
    psi = np.empty((len(times), 2, 2, len(om)), dtype=complex)
    for j, window in enumerate((cfg.window0, cfg.window1)):
        coupling = effective_time(window, times)[:, None]
        for lam, n_lam in enumerate((window.n_h, window.n_v)):
            psi[:, j, lam] = (
                c[lam] * amp * np.exp(1j * n_lam * om * coupling) / np.sqrt(2.0)
            )
    return np.moveaxis(psi, 1, -1).reshape(t.shape + (2, len(om), 2))


def _through_output(
    cfg: InterferometerConfig,
    grid: FrequencyGrid,
    psi: np.ndarray,
    index: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """psi[time, output port, polarization, frequency] at ``times``: the
    inside amplitudes psi[index, path, polarization, frequency] after the
    output beam splitter and the output coupling."""
    mixed = np.stack(
        [
            (psi[:, 0] + psi[:, 1]) / np.sqrt(2.0),
            (psi[:, 0] - psi[:, 1]) / np.sqrt(2.0),
        ],
        axis=1,
    )[index]
    coupling = effective_time(cfg.window_out, times)[:, None]
    for lam, n_lam in enumerate((cfg.window_out.n_h, cfg.window_out.n_v)):
        mixed[:, :, lam] *= np.exp(1j * n_lam * grid.omegas * coupling)[:, None]
    return mixed


def _path_blocks(
    cfg: InterferometerConfig, grid: FrequencyGrid, times: np.ndarray, stage: str
) -> np.ndarray:
    """Unnormalized polarization blocks rho[time, path, a, b], summed over
    frequency, of each inside path or output port at every one of ``times``.

    Times are evolved in chunks of at most ``CHUNK_ELEMENTS`` amplitudes per
    array.  Both arm windows close before the output coupling opens, so the
    inside amplitudes at t are those at min(t, output start).  Each distinct
    one is built once per chunk, and kept for the next chunk if it needs the
    same ones.
    """
    if stage not in ("inside", "outside"):
        raise ValueError(f"unknown stage {stage!r}")
    arm_times = np.minimum(times, cfg.window_out.t_start)
    per_chunk = max(1, CHUNK_ELEMENTS // (4 * len(grid.omegas)))
    blocks = np.empty((len(times), 2, 2, 2), dtype=complex)
    built = inside = None
    for lo in range(0, len(times), per_chunk):
        chunk = slice(lo, lo + per_chunk)
        distinct, index = np.unique(arm_times[chunk], return_inverse=True)
        if built is None or not np.array_equal(distinct, built):
            built = distinct
            inside = np.moveaxis(_amplitudes_inside(cfg, grid, distinct), -1, 1)
        if stage == "inside":
            psi = inside[index]
        else:
            psi = _through_output(cfg, grid, inside, index, times[chunk])
        blocks[chunk] = psi @ psi.conj().swapaxes(-1, -2)
    return blocks


def _state(blocks: np.ndarray, conditioning) -> DensityMatrix:
    """Trace out the path (sum both blocks) or project on one path and
    normalize."""
    rho = blocks[0] + blocks[1] if conditioning is None else blocks[conditioning]
    norm = float(np.real(np.trace(rho)))
    if norm < _CONDITION_TOL:
        raise ImpossibleOutcome(
            f"conditioning weight {norm!r} is zero within tolerance"
        )
    return DensityMatrix(rho / norm)


def _port_weights(blocks: np.ndarray) -> np.ndarray:
    """Weights [..., port] of the output ports: the trace of each
    unnormalized block."""
    return np.real(np.trace(blocks, axis1=-2, axis2=-1))


def oracle_state(
    cfg: InterferometerConfig,
    grid: FrequencyGrid,
    t: float,
    stage: str,
    conditioning=None,
) -> DensityMatrix:
    """Polarization state at time t from direct evolution of the joint state.

    Parameters
    ----------
    stage : "inside" or "outside"
        Whether the state is taken before or after the output beam splitter.
    conditioning : None, 0 or 1
        None averages over the path degree of freedom; an integer projects on
        that (inside path or output port) and normalizes.
    """
    return _state(_path_blocks(cfg, grid, np.array([t]), stage)[0], conditioning)


def oracle_port_probabilities(
    cfg: InterferometerConfig, grid: FrequencyGrid, t: float
) -> tuple[float, float]:
    """Output-port weights from the evolved amplitudes."""
    p0, p1 = _port_weights(_path_blocks(cfg, grid, np.array([t]), "outside")[0])
    return float(p0), float(p1)


class OracleDeviation(NamedTuple):
    max_deviation: float
    probability_deviation: float


_LOCATION_TABLE = {
    "path0": ("inside", 0),
    "path1": ("inside", 1),
    "joint_inside": ("inside", None),
    "path0_out": ("outside", 0),
    "path1_out": ("outside", 1),
    "joint_out": ("outside", None),
}


def _reference(cfg: InterferometerConfig, stage: str, conditioning, t: float) -> DensityMatrix:
    """The closed-form state of one cell."""
    from . import interferometer as itf

    if stage == "inside":
        if conditioning is None:
            return itf.joint_state_inside(cfg, t)
        return itf.path_state_inside(cfg, conditioning, t)
    if conditioning is None:
        return itf.averaged_state_outside(cfg, t)
    return itf.conditional_state_outside(cfg, conditioning, t)


def oracle_compare(
    cfg: InterferometerConfig,
    grid: FrequencyGrid,
    times: Sequence[float],
    locations: Sequence[str] = tuple(_LOCATION_TABLE),
) -> OracleDeviation:
    """Maximum disagreement between the closed forms and the brute force.

    Sweeps the requested (time, location) matrix, comparing states by trace
    distance, and also compares the analytic port probabilities against the
    oracle port weights.  Inside locations only use times up to the start of
    the output coupling, outside locations only times from it on.  Conditional
    cells on an analytically dark port are skipped (both sides are undefined
    there).  Each stage evolves its times in chunks of at most
    ``CHUNK_ELEMENTS`` amplitudes per array, and reads every location of a
    time from the same blocks.
    """
    from .core import trace_distance
    from .interferometer import DARK_PORT_TOL, path_probabilities

    p_analytic = path_probabilities(cfg)
    conditionings = {"inside": [], "outside": []}
    for location in locations:
        stage, conditioning = _LOCATION_TABLE[location]
        dark = (
            stage == "outside"
            and conditioning is not None
            and p_analytic[conditioning] < DARK_PORT_TOL
        )
        if not dark:
            conditionings[stage].append(conditioning)

    times = np.asarray(times, dtype=float)
    out_start = cfg.window_out.t_start
    stage_times = {
        "inside": times[(times >= 0) & (times <= out_start)],
        "outside": times[times >= out_start],
    }
    worst_state = 0.0
    worst_prob = 0.0
    for stage, conds in conditionings.items():
        if not conds:
            continue
        todo = stage_times[stage]
        blocks = _path_blocks(cfg, grid, todo, stage)
        for t, at_t in zip(todo, blocks):
            t = float(t)
            for conditioning in conds:
                simulated = _state(at_t, conditioning)
                reference = _reference(cfg, stage, conditioning, t)
                worst_state = max(worst_state, trace_distance(reference, simulated))
        if stage == "outside" and len(todo):
            worst_prob = float(np.max(np.abs(_port_weights(blocks) - p_analytic)))
    return OracleDeviation(worst_state, worst_prob)
