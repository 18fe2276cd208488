"""Seeded inputs of the three workloads.

Everything here is a pure function of the seed and of the preset documents,
so the same seed gives the same inputs.  The program only ever sees the
generated argument lists and config documents.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference as ref

PRESETS = ("dtau10", "dtau2p5", "dtau1p5", "dtau0p5", "dtau0")

# sweep-long: one outside and one inside command per preset
SWEEP_OUTSIDE_GRID = "60:3000:1"
SWEEP_INSIDE_GRID = "0:60:0.02"
SWEEP_INSIDE_LOCATIONS = ("path0", "path1", "joint_inside")
SWEEP_DEFAULT_LOCATIONS = ("path0_out", "path1_out", "joint_out")

# scan-many: configs per input cycle and points of each short grid
SCAN_CONFIGS = 48
SCAN_POINTS = 96

# oracle-dense: frequency grid sizes and points of each explicit grid
ORACLE_N_FREQ = (201, 401, 1001, 2001, 3001, 4001, 8001)
ORACLE_GRID_POINTS = 16


def preset_docs(src: Path) -> dict[str, dict]:
    """The preset documents as shipped with the package sources."""
    folder = src / "mzdephase" / "presets"
    return {
        name: json.loads((folder / f"{name}.json").read_text(encoding="utf-8"))
        for name in PRESETS
    }


def parse_grid(spec: str) -> np.ndarray:
    """START:STOP:STEP as the README defines it: inclusive, step-spaced."""
    start, stop, step = (float(p) for p in spec.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def round_order(seed: int, round_index: int, count: int) -> list[int]:
    """Order in which one round visits its inputs."""
    rng = np.random.default_rng([seed, round_index])
    return [int(k) for k in rng.permutation(count)]


@dataclass(frozen=True)
class SweepCommand:
    preset: str
    grid: str
    locations: tuple[str, ...]
    argv: tuple[str, ...]


def sweep_commands() -> list[SweepCommand]:
    out = []
    for preset in PRESETS:
        config = ("sweep", "--config", f"preset:{preset}")
        out.append(SweepCommand(
            preset, SWEEP_OUTSIDE_GRID, SWEEP_DEFAULT_LOCATIONS,
            (*config, "--grid", SWEEP_OUTSIDE_GRID),
        ))
        out.append(SweepCommand(
            preset, SWEEP_INSIDE_GRID, SWEEP_INSIDE_LOCATIONS,
            (*config, "--grid", SWEEP_INSIDE_GRID,
             "--locations", ",".join(SWEEP_INSIDE_LOCATIONS)),
        ))
    return out


@dataclass(frozen=True)
class ScanInput:
    doc: dict
    scan: tuple[float, float]
    grid: np.ndarray


def scan_config(rng: np.random.Generator) -> dict:
    """One config inside the estimator's regime: unequal arm durations, so the
    interference weights vanish (|dtau| * n >= 6 gives |kappa| < 1e-7), and a
    birefringent output coupling that runs freely."""
    mu = float(rng.uniform(250.0, 550.0))
    n_v = float(rng.uniform(1.50, 1.60))
    n_h = n_v + float(rng.uniform(0.006, 0.012))
    t_long = float(rng.uniform(40.0, 80.0))
    t_short = t_long - float(rng.uniform(4.0, 14.0))
    t0, t1 = (t_short, t_long) if rng.random() < 0.5 else (t_long, t_short)
    out_v = float(rng.uniform(1.50, 1.60))
    out_h = out_v + float(rng.uniform(0.006, 0.015))
    phi = float(rng.uniform(0.2, 1.37))
    chi = float(rng.uniform(0.0, 2.0 * math.pi))
    return {
        "distribution": {"mu_over_sigma": mu},
        "arm0": {"n_h": n_h, "n_v": n_v, "t_start": 0.0, "t_stop": t0},
        "arm1": {"n_h": n_h, "n_v": n_v, "t_start": 0.0, "t_stop": t1},
        "output": {"n_h": out_h, "n_v": out_v,
                   "t_start": max(t0, t1) + float(rng.uniform(0.0, 5.0)),
                   "t_stop": None},
        "polarization": {
            "ch_re": math.cos(phi), "ch_im": 0.0,
            "cv_re": math.sin(phi) * math.cos(chi),
            "cv_im": math.sin(phi) * math.sin(chi),
            "theta": float(rng.uniform(0.0, 2.0 * math.pi)),
        },
    }


def scan_inputs(seed: int) -> list[ScanInput]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(SCAN_CONFIGS):
        doc = scan_config(rng)
        scan = ref.estimator_scan(ref.Setup(doc))
        out.append(ScanInput(doc, scan, np.linspace(*scan, SCAN_POINTS)))
    return out


@dataclass(frozen=True)
class OracleCommand:
    preset: str
    n_freq: int
    times: np.ndarray
    argv: tuple[str, ...]


def default_oracle_times(s: ref.Setup) -> np.ndarray:
    """Times oracle-check uses without --grid: ten inside, ten from the start
    of the output coupling to the estimator's horizon."""
    start = s.out[2]
    return np.concatenate([np.linspace(0.0, start, 10),
                           np.linspace(start, ref.estimator_scan(s)[1], 10)])


def oracle_commands(seed: int, docs: dict[str, dict]) -> list[OracleCommand]:
    """Per preset and n_freq: one check on the default times and one on an
    explicit grid that ends at a seeded share of the alias-free horizon."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for preset in PRESETS:
        s = ref.Setup(docs[preset])
        config = ("oracle-check", "--config", f"preset:{preset}")
        for n in ORACLE_N_FREQ:
            start = int(math.ceil(s.out[2]))
            reach = start + float(rng.uniform(0.5, 1.0)) * (ref.alias_horizon(s, n) - start)
            step = max(1, int((reach - start) // (ORACLE_GRID_POINTS - 1)))
            stop = start + step * (ORACLE_GRID_POINTS - 1)
            spec = f"{start}:{stop}:{step}"
            for times, extra in (
                (default_oracle_times(s), ()),
                (parse_grid(spec), ("--grid", spec)),
            ):
                if np.max(ref.max_delay(s, times)) > ref.alias_free_delay(n):
                    raise ValueError(f"{preset}: n_freq={n} would alias on {times}")
                out.append(OracleCommand(preset, n, times,
                                         (*config, *extra, "--n-freq", str(n))))
    return out
