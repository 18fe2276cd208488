"""Single-path dephasing dynamics: the conventional open-system view where the
photon traverses one birefringent medium."""
from __future__ import annotations

from .core import (
    DensityMatrix,
    FrequencyDistribution,
    InteractionWindow,
    PolarizationState,
    effective_time,
    kappa_of_delay,
)


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


def single_path_state(
    pol: PolarizationState,
    window: InteractionWindow,
    dist: FrequencyDistribution,
    t: float,
) -> DensityMatrix:
    """Dephased state after time t in one medium.

    Pure dephasing: the populations stay at their initial values while the
    coherence is multiplied by the decoherence factor.
    """
    return _dephased_state(pol, single_path_kappa(window, dist, pol.theta, t))


def _dephased_state(pol: PolarizationState, factor) -> DensityMatrix:
    """The input state with its populations kept and its coherence
    multiplied by a decoherence factor."""
    coh = pol.c_h * pol.c_v.conjugate() * factor
    return DensityMatrix(
        [[abs(pol.c_h) ** 2, coh], [coh.conjugate(), abs(pol.c_v) ** 2]]
    )
