"""Kraus representations, intermediate propagators and complete-positivity
analysis of the conditional output dynamics.

The conditional evolution on each output port is a completely positive,
trace-non-increasing operation.  Its two diagonal Kraus operators are built
from the interference weights and the coherence transfer factor f.  The
propagator between two times depends on f alone; it is completely positive
exactly when |f| has not increased, which ties CP-divisibility to the trace
distance between the maximally coherent input pair.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._intervals import RISE_TOL, merge_rising_steps
from .core import InterferometerConfig
from .errors import ZeroCoherenceFactor
from .interferometer import (
    DARK_PORT_TOL,
    _port_weight,
    coherence_transfer,
    interference_kappas,
    path_probabilities,
)

# |f| below this is treated as an exact zero: the Kraus phase is undefined
ZERO_F_TOL = 1e-14

# default eigenvalue tolerance for Choi-based complete-positivity checks
CP_TOL = 1e-10


def _choi_from_weighted_kraus(weights, operators) -> np.ndarray:
    """Choi matrix sum_i w_i (A_i (x) 1)|Omega><Omega|(A_i (x) 1)^dag.

    Negative weights are admitted so that algebraically continued (non-CP)
    maps still have a well-defined Hermitian Choi matrix.  With
    |Omega> = |HH> + |VV>, (A (x) 1)|Omega> is A flattened row by row.
    """
    choi = np.zeros((4, 4), dtype=complex)
    for w, op in zip(weights, operators):
        vec = op.reshape(4)
        choi += w * np.outer(vec, vec.conj())
    return choi


@dataclass(frozen=True, eq=False)
class QuantumOperation:
    """A qubit operation given by weighted Kraus terms rho -> sum_i w_i A_i rho A_i^dag.

    For physical operations every weight is positive and ``kraus`` exposes the
    conventional operators sqrt(w_i) A_i.  Algebraically continued maps carry a
    negative weight; they have no Kraus form (``kraus`` is None) but keep a
    Hermitian Choi matrix for inspection.
    """

    weights: tuple
    operators: tuple
    choi: np.ndarray

    @classmethod
    def from_kraus(cls, kraus_ops) -> "QuantumOperation":
        ops = tuple(np.asarray(k, dtype=complex) for k in kraus_ops)
        weights = tuple(1.0 for _ in ops)
        return cls(weights, ops, _choi_from_weighted_kraus(weights, ops))

    @classmethod
    def from_weighted_kraus(cls, weights, operators) -> "QuantumOperation":
        ops = tuple(np.asarray(k, dtype=complex) for k in operators)
        ws = tuple(float(w) for w in weights)
        return cls(ws, ops, _choi_from_weighted_kraus(ws, ops))

    @classmethod
    def from_choi(cls, choi) -> "QuantumOperation":
        """Wrap a map given directly by its Choi matrix (no Kraus terms kept)."""
        return cls((), (), np.asarray(choi, dtype=complex))

    @property
    def kraus(self) -> list | None:
        """Kraus operators sqrt(w_i) A_i, or None if the map is not CP-presented."""
        if not self.operators or any(w < 0 for w in self.weights):
            return None
        return [np.sqrt(w) * op for w, op in zip(self.weights, self.operators)]

    @property
    def completeness_deficiency(self) -> np.ndarray:
        """Hermitian matrix 1 - sum_i K_i^dag K_i (zero for trace preservation)."""
        if self.operators:
            acc = np.zeros((2, 2), dtype=complex)
            for w, op in zip(self.weights, self.operators):
                acc += w * (op.conj().T @ op)
        else:
            # partial trace of the Choi matrix over the output factor
            c = self.choi.reshape(2, 2, 2, 2)
            acc = np.einsum("aiaj->ij", c).conj()
        return np.eye(2) - acc

    def apply(self, rho) -> np.ndarray:
        """Apply the operation to a 2x2 matrix."""
        rho = np.asarray(rho, dtype=complex)
        if self.operators:
            out = np.zeros((2, 2), dtype=complex)
            for w, op in zip(self.weights, self.operators):
                out += w * (op @ rho @ op.conj().T)
            return out
        c = self.choi.reshape(2, 2, 2, 2)
        return np.einsum("aibj,ij->ab", c, rho)


def conditional_operation(
    h: float, v: float, f: complex, theta: float = 0.0
) -> QuantumOperation:
    """Conditional-evolution operation for given population weights h, v and
    coherence transfer factor f.

    Two diagonal Kraus operators; applied to the initial polarization
    projector the operation scales the populations by h and v and multiplies
    the coherence by f.  The phase of f is taken relative to the initial
    relative phase theta so that this holds for any input phase convention.
    """
    f = complex(f)
    fabs = abs(f)
    if fabs < ZERO_F_TOL:
        raise ZeroCoherenceFactor(f"|f|={fabs!r}: Kraus phase undefined")
    if min(h, v) < ZERO_F_TOL:
        raise ZeroCoherenceFactor(
            f"population weights ({h!r}, {v!r}) vanish: dark port, any nonzero "
            "f is roundoff"
        )
    hv = np.sqrt(h * v)
    phase = f * np.exp(-1j * theta) / fabs
    kraus = []
    for sign in (1.0, -1.0):
        weight = np.sqrt((hv + sign * fabs) / (2.0 * hv))
        kraus.append(
            weight * np.array([[sign * np.sqrt(h) * phase, 0.0], [0.0, np.sqrt(v)]])
        )
    return QuantumOperation.from_kraus(kraus)


def kraus_conditional(cfg: InterferometerConfig, jp: int, t: float) -> QuantumOperation:
    """Kraus form of the (unnormalized) conditional evolution on port jp.

    Applied to the initial polarization projector the two diagonal operators
    reproduce the unnormalized conditional output state.
    """
    kh, kv = interference_kappas(cfg)
    try:
        return conditional_operation(
            _port_weight(kh, jp),
            _port_weight(kv, jp),
            complex(coherence_transfer(cfg, jp, t)),
            cfg.pol.theta,
        )
    except ZeroCoherenceFactor as exc:
        raise ZeroCoherenceFactor(f"port {jp}, t={t}: {exc}") from None


def propagator(
    cfg: InterferometerConfig, jp: int, t1: float, t2: float
) -> QuantumOperation:
    """Intermediate propagator of port jp from t1 to t2.

    Built from the ratio of coherence transfer factors alone; the interference
    population weights drop out.  Completely positive (and then trace
    preserving) exactly when |f(t2)| <= |f(t1)|.
    """
    if t2 < t1:
        raise ValueError(f"t2={t2} must not precede t1={t1}")
    f1 = complex(coherence_transfer(cfg, jp, t1))
    f2 = complex(coherence_transfer(cfg, jp, t2))
    if abs(f1) < ZERO_F_TOL:
        raise ZeroCoherenceFactor(
            f"|f(t1)|={abs(f1)!r}: propagator undefined from t1={t1} on port {jp}"
        )
    return propagator_from_coherence_factors(f1, f2)


def propagator_from_coherence_factors(f1: complex, f2: complex) -> QuantumOperation:
    """Propagator defined by the coherence transfer factors at the two ends.

    When |f2| grows beyond |f1| the minus branch weight turns negative and the
    map is materialized through its (non-PSD) Choi matrix for inspection.
    """
    ratio = abs(f2) / abs(f1)
    if ratio == 0.0:
        phase = 1.0 + 0.0j
    else:
        phase = (f2 / f1) * (abs(f1) / abs(f2))
    weights = []
    operators = []
    for sign in (1.0, -1.0):
        w = (1.0 + sign * ratio) / 2.0
        if w == 0.0:
            continue
        weights.append(w)
        operators.append(np.array([[sign * phase, 0.0], [0.0, 1.0]]))
    return QuantumOperation.from_weighted_kraus(weights, operators)


def is_completely_positive(op: QuantumOperation, tol: float = CP_TOL) -> bool:
    """Choi criterion: the map is CP iff its Choi matrix is PSD (within tol)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    eigs = np.linalg.eigvalsh(op.choi)
    return bool(eigs[0] >= -tol)


class TraceCharacter(enum.Enum):
    TRACE_PRESERVING = "trace_preserving"
    TRACE_NON_INCREASING = "trace_non_increasing"
    INVALID = "invalid"


def trace_character(op: QuantumOperation, tol: float = CP_TOL) -> TraceCharacter:
    """Classify 1 - sum K^dag K: zero, PSD nonzero, or neither."""
    deficiency = op.completeness_deficiency
    eigs = np.linalg.eigvalsh(deficiency)
    if np.max(np.abs(eigs)) <= tol:
        return TraceCharacter.TRACE_PRESERVING
    if eigs[0] >= -tol:
        return TraceCharacter.TRACE_NON_INCREASING
    return TraceCharacter.INVALID


def divisibility_scan(
    cfg: InterferometerConfig,
    jp: int,
    grid,
    rise_tol: float = RISE_TOL,
) -> list[tuple[float, float]]:
    """Maximal grid intervals on which the port-jp dynamics is not CP-divisible.

    A step is flagged when |f| grows between consecutive grid points by more
    than ``rise_tol`` times the port probability (the same threshold the
    trace-distance backflow detector uses, since the two differ exactly by
    that constant factor).  Returns the merged intervals in time order.  A
    dark port carries no conditional dynamics and yields an empty list.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least 2 points")
    prob = path_probabilities(cfg)[jp]
    if prob < DARK_PORT_TOL:
        return []
    fabs = np.abs(coherence_transfer(cfg, jp, grid))
    rising = np.diff(fabs) > rise_tol * prob
    return merge_rising_steps(grid, rising)
