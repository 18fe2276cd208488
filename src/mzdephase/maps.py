"""Kraus representations, intermediate propagators and complete-positivity
analysis of the conditional output dynamics.

Every operation here is one diagonal map rho -> [[h rho_HH, g rho_HV],
[g^* rho_VH, v rho_VV]].  The conditional evolution on an output port takes
h and v from its interference weights and g from the coherence transfer
factor f; it is completely positive and trace-non-increasing.  The
propagator between two times has h = v = 1 and g = f(t2)/f(t1); it is
completely positive exactly when |f| has not increased, which ties
CP-divisibility to the trace distance between the maximally coherent input
pair.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from ._intervals import RISE_TOL, merge_rising_steps
from .core import InterferometerConfig
from .errors import ZeroCoherenceFactor
from .interferometer import (
    DARK_PORT_TOL,
    _closed_form,
    coherence_transfer,
    path_probabilities,
)

# |f| below this is treated as an exact zero: the Kraus phase is undefined;
# a Kraus weight below it in modulus is dropped as roundoff
ZERO_F_TOL = 1e-14

# default eigenvalue tolerance for Choi-based complete-positivity checks
CP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumOperation:
    """A qubit operation given by its Choi matrix, and by the weighted Kraus
    terms rho -> sum_i w_i A_i rho A_i^dag it was built from, if any.

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
        ops = tuple(kraus_ops)
        return cls.from_weighted_kraus((1.0,) * len(ops), ops)

    @classmethod
    def from_weighted_kraus(cls, weights, operators) -> "QuantumOperation":
        """Choi matrix sum_i w_i (A_i (x) 1)|Omega><Omega|(A_i (x) 1)^dag: with
        |Omega> = |HH> + |VV>, (A (x) 1)|Omega> is A flattened row by row."""
        ops = tuple(np.asarray(k, dtype=complex) for k in operators)
        ws = tuple(float(w) for w in weights)
        choi = np.zeros((4, 4), dtype=complex)
        for w, op in zip(ws, ops):
            vec = op.reshape(4)
            choi += w * np.outer(vec, vec.conj())
        return cls(ws, ops, choi)

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
        """Hermitian matrix 1 - sum_i K_i^dag K_i (zero for trace preservation):
        one minus the partial trace of the Choi matrix over the output."""
        c = self.choi.reshape(2, 2, 2, 2)
        return np.eye(2) - np.einsum("aiaj->ij", c).conj()

    def apply(self, rho) -> np.ndarray:
        """Apply the operation to a 2x2 matrix."""
        c = self.choi.reshape(2, 2, 2, 2)
        return np.einsum("aibj,ij->ab", c, np.asarray(rho, dtype=complex))


def _diagonal_operation(h: float, v: float, g: complex) -> QuantumOperation:
    """The diagonal map rho -> [[h rho_HH, g rho_HV], [g^* rho_VH, v rho_VV]]
    for h, v > 0.

    It is the weighted pair diag(+-sqrt(h) g/|g|, sqrt(v)) with weights
    (1 +- |g|/sqrt(h v))/2.  A weight within ZERO_F_TOL of zero drops its
    term; a negative one (|g|^2 > h v) leaves a map that is not CP.
    """
    gabs = abs(g)
    phase = g / gabs if gabs else 1.0
    ratio = gabs / math.sqrt(h * v)
    sqrt_h, sqrt_v = math.sqrt(h), math.sqrt(v)
    weights, operators = [], []
    for sign in (1.0, -1.0):
        weight = (1.0 + sign * ratio) / 2.0
        if not abs(weight) < ZERO_F_TOL:  # a NaN weight stays, and shows in the Choi matrix
            weights.append(weight)
            operators.append(((sign * sqrt_h * phase, 0.0), (0.0, sqrt_v)))
    return QuantumOperation.from_weighted_kraus(weights, operators)


def conditional_operation(
    h: float, v: float, f: complex, theta: float = 0.0
) -> QuantumOperation:
    """Conditional-evolution operation for given population weights h, v and
    coherence transfer factor f.

    Applied to the initial polarization projector the operation scales the
    populations by h and v and multiplies the coherence by f.  The phase of f
    is taken relative to the initial relative phase theta so that this holds
    for any input phase convention.  It is CP exactly when |f|^2 <= h v.
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
    return _diagonal_operation(h, v, f * cmath.exp(-1j * theta))


def kraus_conditional(cfg: InterferometerConfig, jp: int, t: float) -> QuantumOperation:
    """Kraus form of the (unnormalized) conditional evolution on port jp.

    Applied to the initial polarization projector the two diagonal operators
    reproduce the unnormalized conditional output state.
    """
    transfer, h, v, _ = _closed_form(cfg, "outside", jp, t, normalized=False)
    try:
        return conditional_operation(h, v, complex(transfer), cfg.pol.theta)
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
    return _diagonal_operation(1.0, 1.0, f2 / f1)


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
    fabs = np.abs(coherence_transfer(cfg, jp, grid))
    prob = path_probabilities(cfg)[jp]
    if prob < DARK_PORT_TOL:
        return []
    rising = np.diff(fabs) > rise_tol * prob
    return merge_rising_steps(grid, rising)
