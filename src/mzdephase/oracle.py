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
from .core import check_density_matrices, trace_distances
from .errors import ImpossibleOutcome
from .interferometer import DARK_PORT_TOL, LOCATION_STAGES, _closed_form_states, path_probabilities

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


def _phase(x: np.ndarray) -> np.ndarray:
    """exp(i x) of a real array, with cos(x) and sin(x) written into the real
    and imaginary parts of a complex array."""
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _amplitudes(cfg: InterferometerConfig, grid: FrequencyGrid, times: np.ndarray) -> np.ndarray:
    """Path-major amplitude array psi[time, inside path, polarization,
    frequency] at every one of ``times``: each polarization block of a path
    is contiguous, as the reduction over frequency reads it."""
    om = grid.omegas
    amp = np.sqrt(grid.weights)
    c = (cfg.pol.c_h * np.exp(1j * cfg.pol.theta), cfg.pol.c_v)
    psi = np.empty((len(times), 2, 2, len(om)), dtype=complex)
    for j, window in enumerate((cfg.window0, cfg.window1)):
        coupling = effective_time(window, times)[:, None]
        for lam, n_lam in enumerate((window.n_h, window.n_v)):
            psi[:, j, lam] = c[lam] * amp * _phase(n_lam * om * coupling) / np.sqrt(2.0)
    return psi


def _path_blocks(
    cfg: InterferometerConfig, grid: FrequencyGrid, times: np.ndarray, stage: str
) -> np.ndarray:
    """Unnormalized polarization blocks rho[time, path, a, b], summed over
    frequency, of each inside path or output port at every one of ``times``.

    Times are evolved in chunks of at most ``CHUNK_ELEMENTS`` amplitudes per
    array.  Both arm windows close before the output coupling opens, so the
    inside amplitudes at t are those at min(t, output start).  Each distinct
    one is built once per chunk, and kept for the next chunk if it needs the
    same ones: inside as its blocks, outside already through the output beam
    splitter, so that a chunk only adds the output coupling of its times.
    """
    if stage not in ("inside", "outside"):
        raise ValueError(f"unknown stage {stage!r}")
    out = cfg.window_out
    arm_times = np.minimum(times, out.t_start)
    per_chunk = max(1, CHUNK_ELEMENTS // (4 * len(grid.omegas)))
    blocks = np.empty((len(times), 2, 2, 2), dtype=complex)
    built = None
    for lo in range(0, len(times), per_chunk):
        chunk = slice(lo, lo + per_chunk)
        distinct, index = np.unique(arm_times[chunk], return_inverse=True)
        if built is None or not np.array_equal(distinct, built):
            built = distinct
            psi = _amplitudes(cfg, grid, distinct)
            if stage == "inside":
                inside = psi @ psi.conj().swapaxes(-1, -2)
            else:
                mixed = np.stack([psi[:, 0] + psi[:, 1], psi[:, 0] - psi[:, 1]], axis=1)
                mixed /= np.sqrt(2.0)
        if stage == "inside":
            blocks[chunk] = inside[index]
            continue
        psi = mixed[index]
        coupling = effective_time(out, times[chunk])[:, None]
        for lam, n_lam in enumerate((out.n_h, out.n_v)):
            psi[:, :, lam] *= _phase(n_lam * grid.omegas * coupling)[:, None]
        blocks[chunk] = psi @ psi.conj().swapaxes(-1, -2)
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
    rho, norm = _conditioned(_path_blocks(cfg, grid, np.array([t]), stage), [conditioning])
    rho, norm = rho[0, 0], norm[0, 0]
    if norm < _CONDITION_TOL:
        raise _impossible(norm)
    return DensityMatrix(rho / norm)


def oracle_port_probabilities(
    cfg: InterferometerConfig, grid: FrequencyGrid, t: float
) -> tuple[float, float]:
    """Output-port weights from the evolved amplitudes."""
    p0, p1 = _port_weights(_path_blocks(cfg, grid, np.array([t]), "outside")[0])
    return float(p0), float(p1)


class OracleDeviation(NamedTuple):
    max_deviation: float
    probability_deviation: float


def oracle_compare(
    cfg: InterferometerConfig,
    grid: FrequencyGrid,
    times: Sequence[float],
    locations: Sequence[str] = tuple(LOCATION_STAGES),
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

    A stage's states are validated and compared as one batch.  The first
    cell, in (time, location) order and simulated before closed form, that
    DensityMatrix would reject raises its ValueError; a simulated
    conditioning weight of zero raises ImpossibleOutcome.
    """
    p_analytic = path_probabilities(cfg)
    conditionings = {"inside": [], "outside": []}
    for location in locations:
        stage, conditioning = LOCATION_STAGES[location]
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
        todo = stage_times[stage]
        if not conds or not len(todo):
            continue
        blocks = _path_blocks(cfg, grid, todo, stage)
        rho, norm = _conditioned(blocks, conds)
        impossible = norm < _CONDITION_TOL
        simulated = rho / np.where(impossible, 1.0, norm)[..., None, None]
        reference = np.stack([_closed_form_states(cfg, stage, c, todo) for c in conds], 1)
        # cells in (time, location) order, the simulated state first
        cells = np.stack([simulated, reference], axis=2).reshape(-1, 2, 2)
        first = np.flatnonzero(impossible)
        if first.size:
            check_density_matrices(cells[: 2 * first[0]])
            raise _impossible(norm.flat[first[0]])
        check_density_matrices(cells)
        worst_state = max(worst_state, float(np.max(trace_distances(reference, simulated))))
        if stage == "outside":
            worst_prob = float(np.max(np.abs(_port_weights(blocks) - p_analytic)))
    return OracleDeviation(worst_state, worst_prob)
