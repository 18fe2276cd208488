import numpy as np
import pytest

from mzdephase.channels import single_path_kappa
from mzdephase.core import (
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
    pure_density,
    trace_distance,
)
from mzdephase.interferometer import path_state_inside

DIST = FrequencyDistribution(mu=400.0)
WINDOW0 = InteractionWindow(1.553, 1.544, 0.0, 50.0)
WINDOW1 = InteractionWindow(1.553, 1.544, 0.0, 60.0)


def _path_state(pol, window, dist, t):
    """The state on inside path 0 at time t of an interferometer whose arms
    are both ``window``, its output coupling opening no earlier than t."""
    out = InteractionWindow(1.553, 1.544, max(t, window.t_stop), np.inf)
    return path_state_inside(InterferometerConfig(dist, window, window, out, pol), 0, t)


def test_initial_state_untouched():
    pol = PolarizationState(0.6, 0.8j, 0.7)
    got = _path_state(pol, WINDOW1, DIST, 0.0)
    np.testing.assert_allclose(got.matrix, pure_density(pol).matrix, atol=1e-15)


def test_basis_state_has_nothing_to_dephase():
    for t in (0.0, 30.0, 500.0):
        got = _path_state(PolarizationState.horizontal(), WINDOW1, DIST, t)
        np.testing.assert_allclose(got.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_saturated_coherence_modulus():
    # exp(-(0.009 * 60)^2 / 2), frozen against the quadrature oracle
    for t in (60.0, 61.0, 1000.0):
        got = _path_state(PolarizationState.plus(), WINDOW1, DIST, t)
        assert abs(got.coherence) == pytest.approx(0.5 * 0.8643305520095889, rel=1e-12)


def test_kappa_at_zero_time_and_zero_birefringence():
    assert single_path_kappa(WINDOW0, DIST, 0.0) == 1.0
    flat = InteractionWindow(1.55, 1.55, 0.0, 50.0)
    for t in (0.0, 25.0, 80.0):
        assert single_path_kappa(flat, DIST, t) == 1.0


def test_kappa_modulus_at_window_close():
    # exp(-(0.45)^2 / 2), frozen against the quadrature oracle
    k = single_path_kappa(WINDOW0, DIST, 50.0)
    assert abs(k) == pytest.approx(0.9037070778731982, rel=1e-12)


def test_populations_invariant():
    rng = np.random.default_rng(21)
    for _ in range(25):
        raw = rng.normal(size=4)
        c_h = complex(raw[0], raw[1])
        c_v = complex(raw[2], raw[3])
        norm = np.sqrt(abs(c_h) ** 2 + abs(c_v) ** 2)
        pol = PolarizationState(c_h / norm, c_v / norm, rng.uniform(0, 6.28))
        w = InteractionWindow(1.5 + rng.uniform(0, 0.1), 1.5, 0.0, rng.uniform(5, 60))
        t = rng.uniform(0, 100)
        got = _path_state(pol, w, DIST, t)
        assert got.population_h == abs(pol.c_h) ** 2
        assert got.population_v == abs(pol.c_v) ** 2


def test_coherence_monotone_on_random_windows():
    rng = np.random.default_rng(22)
    for _ in range(10):
        delta = rng.uniform(-0.05, 0.05)
        w = InteractionWindow(1.5 + delta, 1.5, 0.0, rng.uniform(10, 80))
        ts = np.linspace(0.0, 120.0, 200)
        mods = np.abs(single_path_kappa(w, DIST, ts))
        assert np.all(np.diff(mods) <= 1e-15)


def test_pair_trace_distance_equals_kappa_modulus():
    ts = np.linspace(0.0, 90.0, 200)
    for t in ts:
        plus = _path_state(PolarizationState.plus(), WINDOW1, DIST, t)
        minus = _path_state(PolarizationState.minus(), WINDOW1, DIST, t)
        expected = abs(single_path_kappa(WINDOW1, DIST, t))
        assert trace_distance(plus, minus) == pytest.approx(expected, abs=1e-12)
