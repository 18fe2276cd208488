import numpy as np
import pytest

from mzdephase.cli import load_config, preset_path
from mzdephase.core import (
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
)

PRESETS = ("dtau10", "dtau2p5", "dtau1p5", "dtau0p5", "dtau0")

# equal H indices in both arms: output port 1 is bright (probability 0.1425)
# but takes no H light (interference weight h = 0), so it carries no H-V
# coherence; a pure H input makes it dark
EQUAL_H = {
    "distribution": {"mu_over_sigma": 400.0},
    "arm0": {"n_h": 1.5, "n_v": 1.4, "t_stop": 10.0},
    "arm1": {"n_h": 1.5, "n_v": 1.45, "t_stop": 10.0},
    "output": {"n_h": 1.553, "n_v": 1.544, "t_start": 10.0},
}


def preset(name: str) -> InterferometerConfig:
    cfg, _ = load_config(preset_path(name))
    return cfg


@pytest.fixture
def baseline() -> InterferometerConfig:
    return preset("dtau10")


def random_polarization(rng) -> PolarizationState:
    raw = rng.normal(size=4)
    c_h = complex(raw[0], raw[1])
    c_v = complex(raw[2], raw[3])
    norm = np.sqrt(abs(c_h) ** 2 + abs(c_v) ** 2)
    return PolarizationState(c_h / norm, c_v / norm, float(rng.uniform(0, 2 * np.pi)))


def random_config(rng) -> InterferometerConfig:
    """A generic valid experiment: distinct birefringent windows, an output
    coupling that starts after both arms close, and a random input state."""
    dist = FrequencyDistribution(mu=float(rng.uniform(100.0, 500.0)))

    def window(t_start, t_stop):
        n_v = float(rng.uniform(1.5, 1.58))
        delta = float(rng.uniform(0.003, 0.02)) * (1 if rng.random() < 0.5 else -1)
        return InteractionWindow(n_v + delta, n_v, t_start, t_stop)

    w0 = window(0.0, float(rng.uniform(20.0, 60.0)))
    w1 = window(0.0, float(rng.uniform(20.0, 60.0)))
    start = max(w0.t_stop, w1.t_stop) + float(rng.uniform(0.0, 5.0))
    w_out = window(start, np.inf)
    return InterferometerConfig(dist, w0, w1, w_out, random_polarization(rng))
