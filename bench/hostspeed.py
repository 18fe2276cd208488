"""Host-speed normalisation of measured times.

On a shared host the speed of the same code drifts by up to ~1.9x, alike for
every operation and in CPU time as well as wall time, and it moves within
seconds.  No statistic within one run removes such drift, so the benchmark
samples the host's speed with a fixed kernel of its own: a block of
``REPEATS`` kernel calls right before and right after every measurement, and
one call every ``TICK_S`` seconds during it (from a SIGALRM handler, whose
time is taken out of the measurement).  A measured time is scaled by
``KERNEL_REF_S`` over the mean of these samples, each counted as ``REPEATS``
calls.  A time so scaled is the time the measurement would take at the speed
where a block takes ``KERNEL_REF_S``.

The kernel mixes the kinds of work the program does: small-matrix numpy
calls driven from Python (the per-point pipeline), a vectorised exponential
on a long array (the oracle quadrature) and plain interpreter work (configs,
CSV text).  It touches no program code, so a faster or slower program shows
in full.
"""
from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

# time of one block on the reference host in a quiet phase, so that scaled
# figures read close to wall seconds there
KERNEL_REF_S = 0.011
# kernel calls per block
REPEATS = 10
# interval between samples taken during a measurement
TICK_S = 0.1

_MATRIX = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
_PHASES = np.linspace(0.0, 10.0, 10000)


def kernel() -> float:
    """A fixed piece of numpy work; returns a checksum so it is not idle."""
    total = 0.0
    for i in range(30):
        m = np.asarray(_MATRIX * (1.0 + 1e-6 * i), dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("kernel matrix is not Hermitian")
        total += float(np.linalg.eigvalsh(m)[0]) + float(np.real(np.trace(m)))
    total += float(np.sum(np.exp(-1j * _PHASES)).real)
    seen: dict[int, float] = {}
    for i in range(2000):
        seen[i & 255] = total
        total += i * 3 % 7
    return total


def _time_kernel() -> float:
    """Wall time of one kernel call, with the garbage collector off so that
    the objects the program left behind do not weigh on it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Probe:
    """Host-speed samples around and during a sequence of measurements.

    ``block()`` goes before every measurement and once after the last, so
    ``blocks[i]`` and ``blocks[i + 1]`` bracket measurement ``i`` and
    ``ticks[i]`` holds the samples taken during it."""

    def __init__(self):
        self.blocks: list[float] = []
        self.ticks: list[list[float]] = []
        self._stolen = 0.0

    def block(self) -> None:
        self.blocks.append(sum(_time_kernel() for _ in range(REPEATS)))
        self.ticks.append([])

    def discard(self) -> None:
        """Forget the last block and its ticks, for a measurement that failed."""
        self.blocks.pop()
        self.ticks.pop()

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.ticks[-1].append(_time_kernel() * REPEATS)
        self._stolen += perf_counter() - t0

    def start(self) -> None:
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> float:
        """Disarm the timer; returns the time the ticks took."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self._stolen

    def scale(self, durations) -> list[float]:
        """Each of ``durations`` scaled by ``KERNEL_REF_S`` over the mean of
        the samples bracketing and taken during it."""
        if len(self.blocks) != len(durations) + 1:
            raise ValueError(f"{len(durations)} durations need {len(durations) + 1} "
                             f"blocks, got {len(self.blocks)}")
        out = []
        for i, d in enumerate(durations):
            samples = [self.blocks[i], self.blocks[i + 1], *self.ticks[i]]
            out.append(d * KERNEL_REF_S * len(samples) / sum(samples))
        return out


class Stopwatch:
    """Wall time of the block it wraps.  With a probe, host-speed ticks run
    during the block and their time is left out."""

    def __init__(self, probe: Probe | None = None):
        self.probe = probe
        self.elapsed = 0.0

    def __enter__(self):
        if self.probe is not None:
            self.probe.start()
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        stolen = self.probe.stop() if self.probe is not None else 0.0
        self.elapsed = perf_counter() - self._t0 - stolen
        return False
