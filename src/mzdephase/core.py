"""Domain types, the Gaussian dephasing kernel and 2x2 density-matrix utilities.

Unit convention: times are measured in units of the inverse spectral width
(sigma = 1), frequencies in units of sigma.  This keeps every exponent in the
decoherence factors at a numerically safe scale.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# tolerances for double-precision checks on 2x2 matrices
PSD_TOL = 1e-12
TRACE_TOL = 1e-12
UNIT_TRACE_TOL = 1e-9
NORMALIZATION_TOL = 1e-12

# largest number of points one grid may hold: a time grid or a frequency grid
MAX_GRID_POINTS = 1_000_000

# a delay x beyond which the decoherence factor exp(i mu x - x^2 / 2) is 0
# in double precision (already beyond 40); its square stays finite
FAR_DELAY = 1e150


class _Value:
    """Base of the frozen value types: from the class's ``_FIELDS`` it gives
    what a frozen dataclass generates, without generating code at import:
    == with the same class, array fields by np.array_equal, and hash of the
    field tuple, a TypeError where it holds an array; the dataclass repr,
    FrozenInstanceError on any assignment or deletion, and copies and
    pickles that rebuild through __init__.  A subclass declares
    ``__slots__`` and stores its fields in __init__ with object.__setattr__."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a is b or a == b
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class FrequencyDistribution(_Value):
    """Gaussian spectrum of the frequency environment.

    mu is the mean angular frequency, in units of the standard deviation,
    which is the unit of frequency.  The canonical configuration uses
    mu = 400.
    """

    __slots__ = _FIELDS = ("mu",)
    mu: float

    def __init__(self, mu: float):
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu!r}")
        object.__setattr__(self, "mu", mu)


class PolarizationState(_Value):
    """Qubit amplitudes for H and V plus their constant relative phase theta,
    which must be finite: the input coherence is c_h e^(i theta) c_v^*.

    The input coherence (``coherence``) and the populations |c_h|^2 and
    |c_v|^2 (``population_h``, ``population_v``) are computed once, at
    construction; == and hash read only the three fields.
    """

    _FIELDS = ("c_h", "c_v", "theta")
    __slots__ = _FIELDS + ("coherence", "population_h", "population_v")
    c_h: complex
    c_v: complex
    theta: float

    def __init__(self, c_h: complex, c_v: complex, theta: float = 0.0):
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
        try:
            norm = abs(c_h) ** 2 + abs(c_v) ** 2
        except OverflowError:  # an amplitude beyond the float range
            norm = math.inf
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # NaN fails it too
            raise ValueError(f"|c_h|^2 + |c_v|^2 = {norm!r}, expected 1")
        object.__setattr__(self, "c_h", c_h)
        object.__setattr__(self, "c_v", c_v)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "coherence", c_h * cmath.exp(1j * theta) * c_v.conjugate())
        object.__setattr__(self, "population_h", abs(c_h) ** 2)
        object.__setattr__(self, "population_v", abs(c_v) ** 2)

    @classmethod
    def plus(cls) -> "PolarizationState":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)

    @classmethod
    def minus(cls) -> "PolarizationState":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, -s)


@dataclass(frozen=True)
class InteractionWindow:
    """One birefringent medium: refractive indices and the interval in which
    the polarization-frequency coupling is switched on.

    The indices must be finite; t_stop may be math.inf for a coupling that
    runs freely once started.
    """

    n_h: float
    n_v: float
    t_start: float
    t_stop: float

    def __post_init__(self):
        if not (math.isfinite(self.n_h) and math.isfinite(self.n_v)):
            raise ValueError(f"n_h {self.n_h} and n_v {self.n_v} must be finite")
        if not math.isfinite(self.t_start):
            raise ValueError("t_start must be finite")
        if not self.t_start <= self.t_stop:  # NaN fails it too
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


class OutsideTerms(NamedTuple):
    """The time-independent terms of the closed forms after the output beam
    splitter: the path delays d_j = dn_j tau_j and the cross delays a_1 =
    n_h0 tau_0 - n_v1 tau_1, a_2 = n_h1 tau_1 - n_v0 tau_0, each shifted by
    dn_out T after a total outside interaction time T; the interference
    weights, twice the real decoherence factor at the optical path difference
    of each polarization; each port's population weights (2 +- kappa) / 4;
    and the transfer weights.  They are fixed by the spectrum and the four
    windows: the polarization, the open system, reads none of them.

    After a total outside time T every outside coherence transfer is
    e^(i mu s) sum_i w_i e^(-(b_i + s)^2 / 2), with s = dn_out T and the
    centres b = (d_0, d_1, a_1, a_2).  ``transfer_weights`` holds the
    constant complex weights w_i = c_i e^(i mu b_i) of port 0 (c = (1, 1, 1,
    1) / 4), port 1 (c = (1, 1, -1, -1) / 4) and the port average (c = (1, 1,
    0, 0) / 2), in that order; they read neither time nor the polarization."""

    d_0: float
    d_1: float
    a_1: float
    a_2: float
    dn_out: float
    kappa_h: float
    kappa_v: float
    port_weights: tuple[tuple[float, float], tuple[float, float]]
    transfer_weights: tuple[tuple[complex, complex, complex, complex], ...]


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

    @cached_property
    def outside_terms(self) -> OutsideTerms:
        """OutsideTerms, computed on first use and kept; == and hash ignore
        them, and a copy that differs only in ``pol`` computes an equal
        table.  The interference and population weights are Python floats.
        Raises ValueError naming the first arm delay n tau that overflows,
        then naming mu when mu times an interference delay, a_2 - a_1 or a
        centre b_i overflows."""
        w0, w1 = self.window0, self.window1
        t0, t1 = w0.duration, w1.duration
        for name, n, t in (("n_h0 tau_0", w0.n_h, t0), ("n_v0 tau_0", w0.n_v, t0),
                           ("n_h1 tau_1", w1.n_h, t1), ("n_v1 tau_1", w1.n_v, t1)):
            if not math.isfinite(n * t):
                raise ValueError(f"the arm delay {name} = {n:g} * {t:g} overflows")
        x_h, x_v = w0.n_h * t0 - w1.n_h * t1, w0.n_v * t0 - w1.n_v * t1
        d_0, d_1 = w0.delta_n * t0, w1.delta_n * t1
        a_1, a_2 = w0.n_h * t0 - w1.n_v * t1, w1.n_h * t1 - w0.n_v * t0
        for name, delay in (("n_h0 tau_0 - n_h1 tau_1", x_h), ("n_v0 tau_0 - n_v1 tau_1", x_v),
                            ("a_2 - a_1", a_2 - a_1), ("dn_0 tau_0", d_0),
                            ("dn_1 tau_1", d_1), ("n_h0 tau_0 - n_v1 tau_1", a_1),
                            ("n_h1 tau_1 - n_v0 tau_0", a_2)):
            if not math.isfinite(self.dist.mu * delay):
                raise ValueError(f"mu {self.dist.mu:g} makes the phase mu ({name}) overflow")
        kh = 2.0 * kappa_of_delay(self.dist, x_h).real
        kv = 2.0 * kappa_of_delay(self.dist, x_v).real
        e_0, e_1, e_2, e_3 = (cmath.exp(1j * (self.dist.mu * b)) for b in (d_0, d_1, a_1, a_2))
        return OutsideTerms(
            d_0=d_0, d_1=d_1, a_1=a_1, a_2=a_2,
            dn_out=self.window_out.delta_n, kappa_h=kh, kappa_v=kv,
            port_weights=(((2.0 + kh) / 4.0, (2.0 + kv) / 4.0),
                          ((2.0 - kh) / 4.0, (2.0 - kv) / 4.0)),
            transfer_weights=((e_0 / 4.0, e_1 / 4.0, e_2 / 4.0, e_3 / 4.0),
                              (e_0 / 4.0, e_1 / 4.0, -e_2 / 4.0, -e_3 / 4.0),
                              (e_0 / 2.0, e_1 / 2.0, 0j, 0j)),
        )


class DensityMatrix:
    """A 2x2 polarization density matrix [[p_h, c], [c^*, p_v]] in the
    {H, V} basis, held as its three numbers: the populations p_h and p_v, as
    Python floats, and the coherence c = <H|rho|V>, a Python complex.

    Positive semidefiniteness, the trace bounds and unit trace are enforced
    at construction.
    """

    __slots__ = ("_p_h", "_p_v", "_c")

    def __init__(self, population_h, population_v, coherence):
        p_h, p_v, c = float(population_h), float(population_v), complex(coherence)
        # every check is written so that a NaN fails it; the smallest
        # eigenvalue takes abs of a complex, the C library's hypot, as
        # np.hypot in check_density_matrices (math.hypot may round differently)
        tr = p_h + p_v
        lowest = tr / 2.0 - abs(complex((p_h - p_v) / 2.0, abs(c)))
        if not lowest >= -PSD_TOL:
            raise ValueError(f"matrix is not positive semidefinite: min eig {lowest}")
        if not -TRACE_TOL <= tr <= 1.0 + TRACE_TOL:
            raise ValueError(f"trace {tr} outside [0, 1]")
        if not abs(tr - 1.0) <= UNIT_TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1")
        self._p_h, self._p_v, self._c = p_h, p_v, c

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 array, built read-only on each read."""
        m = np.array([[self._p_h, self._c], [self._c.conjugate(), self._p_v]], dtype=complex)
        m.setflags(write=False)
        return m

    @property
    def trace(self) -> float:
        return self._p_h + self._p_v

    @property
    def population_h(self) -> float:
        return self._p_h

    @property
    def population_v(self) -> float:
        return self._p_v

    @property
    def coherence(self) -> complex:
        """The off-diagonal <H|rho|V> element."""
        return self._c

    def __repr__(self):
        return f"DensityMatrix({self._p_h!r}, {self._p_v!r}, {self._c!r})"


def check_density_matrices(population_h, population_v, coherence) -> None:
    """Raise DensityMatrix's ValueError for the first state, in C order of
    the broadcast arrays, that DensityMatrix rejects.

    One vectorised mask applies DensityMatrix's checks with its tolerances,
    each failing on NaN.  The states the mask rejects are then built as
    DensityMatrix in order, and the first one raises.
    """
    p_h, p_v, c = (np.asarray(x) for x in (population_h, population_v, coherence))
    # infinite entries give NaN (inf - inf), which the checks reject
    with np.errstate(invalid="ignore"):
        tr = p_h + p_v
        lowest = tr / 2.0 - np.hypot((p_h - p_v) / 2.0, np.hypot(c.real, c.imag))
    valid = ((lowest >= -PSD_TOL) & (-TRACE_TOL <= tr) & (tr <= 1.0 + TRACE_TOL)
             & (np.abs(tr - 1.0) <= UNIT_TRACE_TOL))
    for k in np.flatnonzero(~valid):
        DensityMatrix(*(np.broadcast_to(x, valid.shape).flat[k] for x in (p_h, p_v, c)))


def effective_time(window: InteractionWindow, t):
    """Accumulated coupling time of a window at laboratory time t.

    Piecewise linear and non-decreasing: zero before the window opens, grows
    at unit rate inside, and saturates at the window duration.  Accepts scalar
    or array t, evaluated in float64 whatever its float type; a float or
    numpy floating t gives a float.
    """
    if isinstance(t, (float, np.floating)):
        # min(max(t, t_start), t_stop), bit for bit, without the builtins'
        # call cost
        t, start, stop = float(t), window.t_start, window.t_stop
        t = start if start > t else t
        return (stop if stop < t else t) - start
    return np.asarray(t, dtype=float).clip(window.t_start, window.t_stop) - window.t_start


def kappa_of_delay(dist: FrequencyDistribution, x):
    """Decoherence factor for an accumulated birefringent delay x.

    Averaging e^(i*omega*x) over the Gaussian spectrum gives
    exp(i mu x - x^2 / 2): the modulus decays like a Gaussian in the delay
    while the phase rotates at the mean frequency.  Accepts scalar or array
    x; a float x is evaluated without numpy.
    """
    if isinstance(x, float):
        x = float(x)
        return cmath.exp(complex(-0.5 * (x * x), dist.mu * x))
    # beyond FAR_DELAY the factor is 0, as the float form gives it; clamped
    # there, x^2 stays finite, and so does mu x for any |mu| below 1e158
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), -FAR_DELAY), FAR_DELAY)
    out = np.exp(1j * (dist.mu * x) - 0.5 * x**2)
    return out if out.ndim else complex(out)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Trace distance (1/2)||a - b||_1 between two states.

    The difference is Hermitian with trace s and eigenvalues s/2 +- r, where
    r is the hypot of its half population difference and its coherence.
    """
    d_h, d_v = a._p_h - b._p_h, a._p_v - b._p_v
    half = (d_h + d_v) / 2.0
    r = math.hypot((d_h - d_v) / 2.0, abs(a._c - b._c))
    return 0.5 * (abs(half + r) + abs(half - r))


def trace_distances(a, b) -> np.ndarray:
    """trace_distance of every pair of states in the broadcast triples
    a = (p_h, p_v, c) and b, by the same closed form.

    Nothing is checked here: validate the states first
    (``check_density_matrices``).
    """
    d_h, d_v, d_c = (np.subtract(x, y) for x, y in zip(a, b))
    half = (d_h + d_v) / 2.0
    r = np.hypot((d_h - d_v) / 2.0, np.hypot(d_c.real, d_c.imag))
    return 0.5 * (np.abs(half + r) + np.abs(half - r))


def pure_density(pol: PolarizationState) -> DensityMatrix:
    """Rank-1 projector of a polarization state, relative phase included."""
    return DensityMatrix(pol.population_h, pol.population_v, pol.coherence)
