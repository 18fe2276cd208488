"""Choi matrices, Kraus forms, intermediate propagators and complete-positivity
analysis of the conditional output dynamics.

Every operation here is one diagonal map rho -> [[h rho_HH, g rho_HV],
[g^* rho_VH, v rho_VV]], stored as its Choi matrix, whose only nonzero
entries are h, g, g^* and v.  The conditional evolution on an output port
takes h and v from its interference weights and g from the coherence transfer
factor f; it is CP and trace-non-increasing.  The propagator between two
times has h = v = 1 and g = f(t2)/f(t1); it is CP exactly when |f| has not
increased, and |f| divided by (h + v) / 2 is the trace distance of the
maximally coherent input pair.  Complete positivity is the Choi spectrum's
verdict, made once by is_completely_positive; a Kraus form is read from the
same spectrum, and only where that verdict is CP.  Whether a port can be
conditioned on is the port probability's verdict, and whether it carries H-V
coherence for a map to act on is its interference weights' verdict; both are
made in the interferometer module."""
from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from ._intervals import RISE_TOL, merge_rising_steps
from .core import InterferometerConfig
from .errors import ZeroCoherenceFactor
from .interferometer import ZERO_F_TOL, _closed_form, _lacks_coherence, coherence_transfer

# default eigenvalue tolerance for Choi-based complete-positivity checks
CP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumOperation:
    """A qubit operation given by its Choi matrix sum_ij E(|i><j|) (x) |i><j|,
    the one thing it stores: entry ((a, i), (b, j)) is <a|E(|i><j|)|b>.

    Every other view reads this matrix.  ``kraus`` gives the operators of the
    Choi spectrum where the map is CP and None where it is not; a map that is
    not CP keeps its Hermitian Choi matrix for inspection.
    """

    choi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "choi", np.asarray(self.choi, dtype=complex))

    @classmethod
    def from_kraus(cls, kraus_ops) -> "QuantumOperation":
        """Choi matrix sum_K vec(K) vec(K)^dag, with vec(K) = (K (x) 1)|Omega>
        for |Omega> = |HH> + |VV>: K flattened row by row."""
        choi = np.zeros((4, 4), dtype=complex)
        for op in kraus_ops:
            vec = np.asarray(op, dtype=complex).reshape(4)
            choi += np.outer(vec, vec.conj())
        return cls(choi)

    @property
    def kraus(self) -> list | None:
        """Kraus operators sqrt(l) V of the Choi eigenpairs (l, vec(V)) with
        l > CP_TOL, or None exactly when is_completely_positive is False."""
        if not is_completely_positive(self):
            return None
        eigs, vecs = np.linalg.eigh(self.choi)
        return [np.sqrt(l) * vecs[:, i].reshape(2, 2) for i, l in enumerate(eigs) if l > CP_TOL]

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


def _check_finite(**arguments) -> None:
    """Raise ValueError naming the first argument that is NaN or infinite."""
    for name, value in arguments.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _diagonal_operation(h: float, v: float, g: complex) -> QuantumOperation:
    """The diagonal map rho -> [[h rho_HH, g rho_HV], [g^* rho_VH, v rho_VV]],
    written as its closed-form Choi matrix: h, g, g^* and v at its corners.

    For h, v > 0 its spectrum is 0, 0 and (h + v) / 2 +- |((h - v) / 2, g)|,
    so it is CP exactly when |g|^2 <= h v.
    """
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 0], choi[0, 3], choi[3, 0], choi[3, 3] = h, g, g.conjugate(), v
    return QuantumOperation(choi)


def conditional_operation(
    h: float, v: float, f: complex, theta: float = 0.0
) -> QuantumOperation:
    """Conditional-evolution operation for given population weights h, v and
    coherence transfer factor f.

    Applied to the initial polarization projector the operation scales the
    populations by h and v and multiplies the coherence by f.  The phase of f
    is taken relative to the initial relative phase theta so that this holds
    for any input phase convention.  It is CP exactly when |f|^2 <= h v.  A
    NaN or infinite argument raises ValueError naming it, as does h or v <= 0.
    """
    _check_finite(h=h, v=v, f=f, theta=theta)
    if not (h > 0 and v > 0):
        raise ValueError(f"population weights ({h!r}, {v!r}) must be positive")
    f = complex(f)
    fabs = abs(f)
    if fabs < ZERO_F_TOL:
        raise ZeroCoherenceFactor(f"|f|={fabs!r}: Kraus phase undefined")
    return _diagonal_operation(h, v, f * cmath.exp(-1j * theta))


def _port_terms(cfg: InterferometerConfig, jp: int, times):
    """(f, h, v) of port jp: its coherence transfer at ``times`` and its
    interference weights.  A port that the interferometer module finds
    without H-V coherence raises ZeroCoherenceFactor."""
    f, h, v, _ = _closed_form(cfg, "outside", jp, times, normalized=False)
    if _lacks_coherence(h, v):
        raise ZeroCoherenceFactor(f"port {jp} has no H-V coherence: weights ({h!r}, {v!r})")
    return f, h, v


def kraus_conditional(cfg: InterferometerConfig, jp: int, t: float) -> QuantumOperation:
    """The (unnormalized) conditional evolution on port jp, whose Kraus form
    is its ``kraus``.

    Applied to the initial polarization projector the operation reproduces
    the unnormalized conditional output state.
    """
    f, h, v = _port_terms(cfg, jp, t)
    try:
        return conditional_operation(h, v, complex(f), cfg.pol.theta)
    except ZeroCoherenceFactor as exc:
        raise ZeroCoherenceFactor(f"port {jp}, t={t}: {exc}") from None


def propagator(
    cfg: InterferometerConfig, jp: int, t1: float, t2: float
) -> QuantumOperation:
    """Intermediate propagator of port jp from t1 to t2.

    Built from the ratio of coherence transfer factors alone; the interference
    weights drop out of the map and only gate the port.  Completely positive
    (and then trace preserving) exactly when |f(t2)| <= |f(t1)|.
    """
    if t2 < t1:
        raise ValueError(f"t2={t2} must not precede t1={t1}")
    f1 = complex(_port_terms(cfg, jp, t1)[0])
    f2 = complex(coherence_transfer(cfg, jp, t2))
    try:
        return propagator_from_coherence_factors(f1, f2)
    except ZeroCoherenceFactor as exc:
        raise ZeroCoherenceFactor(f"port {jp}, t1={t1}: {exc}") from None


def propagator_from_coherence_factors(f1: complex, f2: complex) -> QuantumOperation:
    """Propagator defined by the coherence transfer factors at the two ends.

    When |f2| grows beyond |f1| the Choi matrix has a negative eigenvalue and
    the map is not CP; it is kept for inspection.  A
    NaN or infinite factor raises ValueError naming it, and |f1| below
    ZERO_F_TOL raises ZeroCoherenceFactor.
    """
    _check_finite(f1=f1, f2=f2)
    if abs(f1) < ZERO_F_TOL:
        raise ZeroCoherenceFactor(f"|f1|={abs(f1)!r}: propagator undefined")
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


def divisibility_scan(cfg: InterferometerConfig, jp: int, grid) -> list[tuple[float, float]]:
    """Maximal grid intervals on which the port-jp dynamics is not CP-divisible.

    A step is flagged when |f| grows between consecutive grid points by more
    than ``RISE_TOL`` times (h + v) / 2, the port probability of the |+> / |->
    pair that the backflow detector divides |f| by, so both flag the same
    steps for any input polarization.  Returns the merged intervals in time
    order; a port without H-V coherence yields none.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least 2 points")
    try:
        f, h, v = _port_terms(cfg, jp, grid)
    except ZeroCoherenceFactor:
        return []
    rising = np.diff(np.abs(f)) > RISE_TOL * (h + v) / 2.0
    return merge_rising_steps(grid, rising)
