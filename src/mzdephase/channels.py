"""Single-path dephasing dynamics: the conventional open-system view where the
photon traverses one birefringent medium."""
from __future__ import annotations

from .core import FrequencyDistribution, InteractionWindow, effective_time, kappa_of_delay


def single_path_kappa(
    window: InteractionWindow,
    dist: FrequencyDistribution,
    theta: float,
    t,
):
    """Decoherence factor of one medium at laboratory time t.

    The accumulated delay is the birefringence times the effective coupling
    time, so the modulus is non-increasing in t for the Gaussian spectrum.
    """
    return kappa_of_delay(dist, theta, window.delta_n * effective_time(window, t))

