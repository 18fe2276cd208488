"""Domain types, the Gaussian dephasing kernel and 2x2 density-matrix utilities.

Unit convention: times are measured in units of the inverse spectral width
(sigma = 1), frequencies in units of sigma.  This keeps every exponent in the
decoherence factors at a numerically safe scale.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# tolerances for double-precision checks on 2x2 matrices
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-12
TRACE_TOL = 1e-12
UNIT_TRACE_TOL = 1e-9
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class FrequencyDistribution:
    """Gaussian spectrum of the frequency environment.

    mu is the mean angular frequency and sigma the standard deviation, both in
    units of 1/time.  The canonical configuration uses mu/sigma = 400.
    """

    mu: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.mu / self.sigma):
            raise ValueError("mu/sigma must be finite")


@dataclass(frozen=True)
class PolarizationState:
    """Qubit amplitudes for H and V plus their constant relative phase theta."""

    c_h: complex
    c_v: complex
    theta: float = 0.0

    def __post_init__(self):
        try:
            norm = abs(self.c_h) ** 2 + abs(self.c_v) ** 2
        except OverflowError:  # an amplitude beyond the float range
            norm = math.inf
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"|c_h|^2 + |c_v|^2 = {norm!r}, expected 1")

    @classmethod
    def plus(cls) -> "PolarizationState":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)

    @classmethod
    def minus(cls) -> "PolarizationState":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, -s)

    @classmethod
    def horizontal(cls) -> "PolarizationState":
        return cls(1.0, 0.0)

    @classmethod
    def vertical(cls) -> "PolarizationState":
        return cls(0.0, 1.0)


@dataclass(frozen=True)
class InteractionWindow:
    """One birefringent medium: refractive indices and the interval in which
    the polarization-frequency coupling is switched on.

    t_stop may be math.inf for a coupling that runs freely once started.
    """

    n_h: float
    n_v: float
    t_start: float
    t_stop: float

    def __post_init__(self):
        if not math.isfinite(self.t_start):
            raise ValueError("t_start must be finite")
        if self.t_start > self.t_stop:
            raise ValueError(
                f"t_start {self.t_start} must not exceed t_stop {self.t_stop}"
            )

    @property
    def delta_n(self) -> float:
        """Birefringence n_h - n_v."""
        return self.n_h - self.n_v

    @property
    def duration(self) -> float:
        return self.t_stop - self.t_start


@dataclass(frozen=True)
class InterferometerConfig:
    """Full experiment description: spectrum, the two inside couplings, the
    shared outside coupling, and the input polarization.

    Both beam splitters are ideal 50/50 with zero relative path phase, and the
    outside coupling starts only after both inside couplings have ended.
    """

    dist: FrequencyDistribution
    window0: InteractionWindow
    window1: InteractionWindow
    window_out: InteractionWindow
    pol: PolarizationState

    def __post_init__(self):
        latest = max(self.window0.t_stop, self.window1.t_stop)
        if self.window_out.t_start < latest:
            raise ValueError(
                "output coupling starts at "
                f"{self.window_out.t_start}, before the inside couplings end at {latest}"
            )


class DensityMatrix:
    """A 2x2 polarization density matrix in the {H, V} basis.

    Hermiticity, positive semidefiniteness and trace bounds are enforced at
    construction.  Trace below one is only admitted for explicitly
    unnormalized conditional states (``require_unit_trace=False``).
    """

    __slots__ = ("_m", "_trace")

    def __init__(self, matrix, *, require_unit_trace: bool = True):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        # every check is written so that a NaN fails it
        a, b, c, d = m.ravel().tolist()
        if not (
            2.0 * abs(a.imag) <= HERMITICITY_TOL
            and abs(b - c.conjugate()) <= HERMITICITY_TOL
            and 2.0 * abs(d.imag) <= HERMITICITY_TOL
        ):
            raise ValueError("matrix is not Hermitian")
        # smallest eigenvalue of the Hermitian matrix read from the lower
        # triangle, as LAPACK's eigvalsh reads it; abs of a complex is the C
        # library's hypot, as np.hypot in check_density_matrices (math.hypot
        # may round differently)
        tr = a.real + d.real
        lowest = tr / 2.0 - abs(complex((a.real - d.real) / 2.0, abs(c)))
        if not lowest >= -PSD_TOL:
            raise ValueError(f"matrix is not positive semidefinite: min eig {lowest}")
        if not -TRACE_TOL <= tr <= 1.0 + TRACE_TOL:
            raise ValueError(f"trace {tr} outside [0, 1]")
        if require_unit_trace and not abs(tr - 1.0) <= UNIT_TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1")
        m.setflags(write=False)
        self._m = m
        self._trace = tr

    @property
    def matrix(self) -> np.ndarray:
        """The underlying (read-only) 2x2 array."""
        return self._m

    @property
    def trace(self) -> float:
        return self._trace

    @property
    def population_h(self) -> float:
        return float(np.real(self._m[0, 0]))

    @property
    def population_v(self) -> float:
        return float(np.real(self._m[1, 1]))

    @property
    def coherence(self) -> complex:
        """The off-diagonal <H|rho|V> element."""
        return complex(self._m[0, 1])

    @property
    def unit_trace(self) -> bool:
        return abs(self.trace - 1.0) <= UNIT_TRACE_TOL

    def __repr__(self):
        return f"DensityMatrix({self._m.tolist()!r})"


def check_density_matrices(m) -> None:
    """Raise DensityMatrix's ValueError for the first matrix of the stack
    m[..., 2, 2] (in C order) that DensityMatrix, unit trace required,
    rejects.

    One vectorised mask applies DensityMatrix's checks with its tolerances,
    each failing on NaN; ``abs`` of a complex entry is taken as the hypot of
    its parts, as Python's ``abs`` takes it.  The matrices the mask rejects
    are then built as DensityMatrix in order, and the first one raises.
    """
    m = np.asarray(m, dtype=complex).reshape(-1, 2, 2)
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    # infinite entries give NaN (inf - inf), which the checks reject
    with np.errstate(invalid="ignore"):
        skew = b - c.conj()
        tr = a.real + d.real
        lowest = tr / 2.0 - np.hypot((a.real - d.real) / 2.0, np.hypot(c.real, c.imag))
    valid = (
        (2.0 * np.abs(a.imag) <= HERMITICITY_TOL)
        & (np.hypot(skew.real, skew.imag) <= HERMITICITY_TOL)
        & (2.0 * np.abs(d.imag) <= HERMITICITY_TOL)
        & (lowest >= -PSD_TOL)
        & (-TRACE_TOL <= tr)
        & (tr <= 1.0 + TRACE_TOL)
        & (np.abs(tr - 1.0) <= UNIT_TRACE_TOL)
    )
    for k in np.flatnonzero(~valid):
        DensityMatrix(m[k])


def effective_time(window: InteractionWindow, t):
    """Accumulated coupling time of a window at laboratory time t.

    Piecewise linear and non-decreasing: zero before the window opens, grows
    at unit rate inside, and saturates at the window duration.  Accepts scalar
    or array t; a float t gives a float.
    """
    if isinstance(t, float):
        return min(max(float(t), window.t_start), window.t_stop) - window.t_start
    return np.clip(t, window.t_start, window.t_stop) - window.t_start


def kappa_of_delay(dist: FrequencyDistribution, theta: float, x):
    """Decoherence factor for an accumulated birefringent delay x.

    Averaging e^(i*omega*x) over the Gaussian spectrum gives
    exp[i(theta + mu*x) - (sigma*x)^2 / 2]: the modulus decays like a Gaussian
    in the delay while the phase rotates at the mean frequency.  Accepts
    scalar or array x; a float x is evaluated without numpy.
    """
    if isinstance(x, float):
        x = float(x)
        s = dist.sigma * x
        return cmath.exp(complex(-0.5 * (s * s), theta + dist.mu * x))
    x = np.asarray(x, dtype=float)
    out = np.exp(1j * (theta + dist.mu * x) - 0.5 * (dist.sigma * x) ** 2)
    return out if out.ndim else complex(out)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Trace distance (1/2)||a - b||_1 between two unit-trace states.

    The difference is Hermitian with trace s and eigenvalues s/2 +- r, where
    r is read from its lower triangle as for the DensityMatrix check.
    """
    if not a.unit_trace or not b.unit_trace:
        raise ValueError("trace distance requires unit-trace inputs")
    a00, _, a10, a11 = a.matrix.ravel().tolist()
    b00, _, b10, b11 = b.matrix.ravel().tolist()
    d00, d11 = a00.real - b00.real, a11.real - b11.real
    half = (d00 + d11) / 2.0
    r = math.hypot((d00 - d11) / 2.0, abs(a10 - b10))
    return 0.5 * (abs(half + r) + abs(half - r))


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """trace_distance of every pair of states in the stacks a[..., 2, 2] and
    b[..., 2, 2], by the same closed form.

    Nothing is checked here: validate the states first
    (``check_density_matrices``).
    """
    d00 = a[..., 0, 0].real - b[..., 0, 0].real
    d11 = a[..., 1, 1].real - b[..., 1, 1].real
    d10 = a[..., 1, 0] - b[..., 1, 0]
    half = (d00 + d11) / 2.0
    r = np.hypot((d00 - d11) / 2.0, np.hypot(d10.real, d10.imag))
    return 0.5 * (np.abs(half + r) + np.abs(half - r))


def pure_density(pol: PolarizationState) -> DensityMatrix:
    """Rank-1 projector of a polarization state, relative phase included."""
    ch = complex(pol.c_h) * np.exp(1j * pol.theta)
    cv = complex(pol.c_v)
    vec = np.array([ch, cv])
    return DensityMatrix(np.outer(vec, vec.conj()))
