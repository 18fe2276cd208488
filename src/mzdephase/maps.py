"""Intermediate propagators, Kraus forms and complete-positivity analysis of
the conditional output dynamics.

After the output beam splitter the conditional dynamics is pure dephasing
with path-wise population weights, so every operation here is one diagonal
map rho -> [[h rho_HH, g rho_HV], [g^* rho_VH, v rho_VV]], stored as its
three numbers (h, v, g).  The conditional evolution on an output port takes
h and v from its interference weights and g from the coherence transfer
factor f; it is CP and trace-non-increasing.  The propagator between two
times has h = v = 1 and g = f(t2)/f(t1); it is CP exactly when |f| has not
increased, and |f| divided by (h + v) / 2 is the trace distance of the
maximally coherent input pair.  The Choi matrix and the Kraus form are views
of the three numbers; complete positivity is one closed-form verdict, made by
is_completely_positive, and a Kraus form exists exactly where it is CP.
Whether a port can be conditioned on is the port probability's verdict, and
whether it carries H-V coherence for a map to act on is its interference
weights' verdict; both are made in the interferometer module."""
from __future__ import annotations

import cmath
import enum

import numpy as np

from ._intervals import RISE_TOL, merge_rising_steps
from .core import InterferometerConfig, _Value
from .errors import ZeroCoherenceFactor
from .interferometer import ZERO_F_TOL, _check_index, _closed_form, _lacks_coherence

# eigenvalue tolerance of the Choi-based complete-positivity checks
CP_TOL = 1e-10


class QuantumOperation(_Value):
    """The diagonal qubit map rho -> [[h rho_HH, g rho_HV], [g^* rho_VH,
    v rho_VV]], given by its three numbers; a NaN or infinite one raises
    ValueError naming it.

    ``choi`` and ``kraus`` are views of (h, v, g).  ``kraus`` gives the
    operators of the Choi spectrum where the map is CP and None where it is
    not; a map that is not CP keeps its numbers for inspection.
    """

    __slots__ = _FIELDS = ("h", "v", "g")
    h: float
    v: float
    g: complex

    def __init__(self, h: float, v: float, g: complex):
        _check_finite(h=h, v=v, g=g)
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "v", float(v))
        object.__setattr__(self, "g", complex(g))

    @property
    def choi(self) -> np.ndarray:
        """Choi matrix sum_ij E(|i><j|) (x) |i><j|, whose entry ((a, i), (b, j))
        is <a|E(|i><j|)|b>: h, g, g^* and v at its corners, zero elsewhere."""
        h, v, g = self.h, self.v, self.g
        choi = np.zeros((4, 4), dtype=complex)
        choi[0, 0], choi[0, 3], choi[3, 0], choi[3, 3] = h, g, g.conjugate(), v
        return choi

    @property
    def kraus(self) -> list | None:
        """Kraus operators sqrt(l) V of the Choi eigenpairs (l, vec(V)) with
        l > CP_TOL, or None exactly when is_completely_positive is False."""
        if not is_completely_positive(self):
            return None
        eigs, vecs = np.linalg.eigh(self.choi)
        return [np.sqrt(l) * vecs[:, i].reshape(2, 2) for i, l in enumerate(eigs) if l > CP_TOL]

    def apply(self, rho) -> np.ndarray:
        """Apply the operation to a 2x2 matrix; any other shape raises
        ValueError naming it."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"rho must be 2x2, got shape {rho.shape}")
        return rho * [[self.h, self.g], [self.g.conjugate(), self.v]]


def _check_finite(**arguments) -> None:
    """Raise ValueError naming the first argument that is NaN or infinite."""
    for name, value in arguments.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _port_terms(cfg: InterferometerConfig, jp: int, times):
    """(f, h, v) of port jp: its coherence transfer at ``times`` and its
    interference weights.  A port index other than 0 or 1 raises ValueError,
    and a port that the interferometer module finds without H-V coherence
    ZeroCoherenceFactor."""
    _check_index("port", jp)
    f, h, v = _closed_form(cfg, "outside", jp, times)
    if _lacks_coherence(h, v):
        raise ZeroCoherenceFactor(f"port {jp} has no H-V coherence: weights ({h!r}, {v!r})")
    return f, h, v


def kraus_conditional(cfg: InterferometerConfig, jp: int, t: float) -> QuantumOperation:
    """The conditional evolution on port jp at laboratory time t, before the
    division by the port probability, whose Kraus form is its ``kraus``:
    (h, v, f), the port's interference weights and its coherence transfer.

    Applied to the initial polarization projector the operation reproduces
    p_jp times the port state, ``path_probabilities(cfg)[jp]`` times
    ``conditional_state_outside(cfg, jp, t)``: its trace is the port
    probability.
    """
    f, h, v = _port_terms(cfg, jp, t)
    return QuantumOperation(h, v, f)


def propagator(
    cfg: InterferometerConfig, jp: int, t1: float, t2: float
) -> QuantumOperation:
    """Intermediate propagator of port jp from t1 to t2: (1, 1, f(t2)/f(t1)).

    Built from the ratio of coherence transfer factors alone; the interference
    weights drop out of the map and only gate the port.  Completely positive
    (and then trace preserving) exactly when |f(t2)| <= |f(t1)|; a map that
    is not CP is kept for inspection.  |f(t1)| below ZERO_F_TOL raises
    ZeroCoherenceFactor naming the port and t1.
    """
    if t2 < t1:
        raise ValueError(f"t2={t2} must not precede t1={t1}")
    f1 = complex(_port_terms(cfg, jp, t1)[0])
    f2 = complex(_closed_form(cfg, "outside", jp, t2)[0])
    if abs(f1) < ZERO_F_TOL:
        raise ZeroCoherenceFactor(f"port {jp}, t1={t1}: |f1|={abs(f1)!r}: propagator undefined")
    return QuantumOperation(1.0, 1.0, f2 / f1)


def is_completely_positive(op: QuantumOperation) -> bool:
    """Choi criterion: the map is CP iff the lowest Choi eigenvalue,
    (h + v) / 2 - |((h - v) / 2, g)|, is at least -CP_TOL; the spectrum is
    0, 0 and (h + v) / 2 +- |((h - v) / 2, g)|.  It is read from the halves
    of h and v, bit for bit the same wherever (h + v) / 2 does not overflow."""
    h, v = op.h / 2.0, op.v / 2.0
    return h + v - abs(complex(h - v, abs(op.g))) >= -CP_TOL


class TraceCharacter(enum.Enum):
    TRACE_PRESERVING = "trace_preserving"
    TRACE_NON_INCREASING = "trace_non_increasing"
    INVALID = "invalid"


def trace_character(op: QuantumOperation) -> TraceCharacter:
    """Classify the deficiency 1 - sum K^dag K = diag(1 - h, 1 - v) within
    CP_TOL: zero, PSD nonzero, or neither."""
    deficiency = (1.0 - op.h, 1.0 - op.v)
    if max(map(abs, deficiency)) <= CP_TOL:
        return TraceCharacter.TRACE_PRESERVING
    if min(deficiency) >= -CP_TOL:
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
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-D, got shape {grid.shape}")
    if len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least 2 points")
    try:
        f, h, v = _port_terms(cfg, jp, grid)
    except ZeroCoherenceFactor:
        return []
    rising = np.diff(np.abs(f)) > RISE_TOL * (h + v) / 2.0
    return merge_rising_steps(grid, rising)
