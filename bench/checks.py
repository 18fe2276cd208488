"""Output checks of every workload operation.

Each check returns a list of problems; an empty list means the output passed.
Expected values come from ``reference``, never from a stored copy of the
program's earlier output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reference as ref

# closed forms and reference agree to ~5e-16; cells are printed with 17 digits
CELL_TOL = 1e-12
# the program refines the peak on a grid of step pi / (8 mu n_max); the
# Gaussian top then lies within ~1e-11 of its maximum
PEAK_TOL = 1e-9
# oracle-check's own pass thresholds
ORACLE_STATE_TOL = 1e-5
ORACLE_PROB_TOL = 1e-8
# a trace-distance rise must exceed this to count as backflow (program's RISE_TOL)
RISE_TOL = 1e-9


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def expected_sweep(doc: dict, grid: np.ndarray, locations) -> dict:
    s = ref.Setup(doc)
    return {
        "grid": grid,
        "locations": tuple(locations),
        "columns": {loc: ref.trace_distance(s, loc, grid) for loc in locations},
        "p": ref.port_probabilities(s),
        "pop_h": (ref.pop_h_out(s, 0), ref.pop_h_out(s, 1)),
    }


def check_sweep_csv(text: str, expect: dict) -> list[str]:
    """Every CSV cell within CELL_TOL of the reference; dark-port columns
    empty exactly where the reference port probability is below the dark
    tolerance."""
    locations = expect["locations"]
    header = ",".join(["tau", *(f"D_{loc}" for loc in locations),
                       "p_out0", "p_out1", "popH_out0", "popH_out1"])
    lines = text.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != header:
        return [f"header {lines[0] if lines else ''!r} != {header!r}"]
    grid = expect["grid"]
    if len(lines) - 1 != len(grid):
        return [f"{len(lines) - 1} rows, expected {len(grid)}"]
    fixed = [*expect["p"], *expect["pop_h"]]
    problems = []
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(locations) + 5:
            problems.append(f"row {k}: {len(cells)} cells")
            continue
        wanted = [grid[k]]
        wanted += [None if expect["columns"][loc] is None else expect["columns"][loc][k]
                   for loc in locations]
        wanted += fixed
        for col, (cell, want) in enumerate(zip(cells, wanted)):
            if want is None:
                if cell != "":
                    problems.append(f"row {k} col {col}: {cell!r} on a dark port")
            elif cell == "" or not _close(float(cell), want, CELL_TOL):
                problems.append(f"row {k} col {col}: {cell!r} != {want!r}")
        if len(problems) > 5:
            break
    return problems


@dataclass
class ScanResult:
    """What one scan-many operation returned."""

    estimate: float
    t_max: float
    peak: float
    p: tuple[float, float]
    series: list          # per port: trace-distance values on the grid
    blp: list             # per port: BLP measure
    backflow: list        # per port: backflow intervals
    non_cp: list          # per port: non-CP-divisible intervals
    flagged_cp: list      # per port: Choi verdicts on the flagged steps
    falling_cp: list      # per port: Choi verdicts on clearly falling steps


def flagged_steps(grid, intervals) -> list[int]:
    """Indices k of the steps grid[k] -> grid[k+1] inside the intervals."""
    steps = []
    for lo, hi in intervals:
        steps += [k for k in range(len(grid) - 1) if lo <= grid[k] and grid[k + 1] <= hi]
    return steps


def falling_steps(values, flagged) -> list[int]:
    """The first step after each flagged run on which the trace distance
    falls by more than the rise tolerance."""
    flagged = set(flagged)
    diff = np.diff(values)
    out = []
    for k in sorted(flagged):
        if k + 1 in flagged:
            continue
        later = [j for j in range(k + 1, len(diff)) if diff[j] < -RISE_TOL]
        if later:
            out.append(later[0])
    return out


def _same_intervals(a, b, step) -> bool:
    return len(a) == len(b) and all(
        abs(x[0] - y[0]) <= step + 1e-12 and abs(x[1] - y[1]) <= step + 1e-12
        for x, y in zip(a, b)
    )


def check_scan(result: ScanResult, doc: dict, scan, grid) -> list[str]:
    s = ref.Setup(doc)
    problems = []
    best = ref.lambda_scan_max(s, *scan)
    if result.peak < best - PEAK_TOL:
        problems.append(f"peak {result.peak!r} below reference maximum {best!r}")
    at = float(ref.lambda_abs(s, result.t_max))
    if not _close(result.peak, at, CELL_TOL):
        problems.append(f"peak {result.peak!r} != |Lambda(t_max)| {at!r}")
    n_max = max(v for arm in s.arms for v in arm[:2])
    if not _close(result.estimate, abs(s.dn_out) * result.t_max / n_max, CELL_TOL):
        problems.append(f"estimate {result.estimate!r} does not follow from t_max")
    p_ref = ref.port_probabilities(s)
    if abs(result.p[0] + result.p[1] - 1.0) > 1e-15:
        problems.append(f"p0 + p1 = {result.p[0] + result.p[1]!r}")
    if not all(_close(a, b, CELL_TOL) for a, b in zip(result.p, p_ref)):
        problems.append(f"port probabilities {result.p!r} != {p_ref!r}")
    step = float(np.max(np.diff(grid)))
    for jp in (0, 1):
        values = np.asarray(result.series[jp])
        want = ref.trace_distance(s, f"path{jp}_out", grid)
        if values.min() < 0.0 or values.max() > 1.0:
            problems.append(f"port {jp}: D outside [0, 1]")
        worst = float(np.max(np.abs(values - want)))
        if worst > CELL_TOL:
            problems.append(f"port {jp}: D off the reference by {worst!r}")
        inc = np.diff(want)
        blp_ref = float(inc[inc > RISE_TOL].sum())
        if not _close(result.blp[jp], blp_ref, 1e-10):
            problems.append(f"port {jp}: BLP {result.blp[jp]!r} != {blp_ref!r}")
        if not result.non_cp[jp]:
            problems.append(f"port {jp}: no non-CP-divisible interval around the peak")
        if not _same_intervals(result.non_cp[jp], result.backflow[jp], step):
            problems.append(f"port {jp}: non-CP intervals {result.non_cp[jp]} "
                            f"!= backflow {result.backflow[jp]}")
        if any(result.flagged_cp[jp]) or not result.flagged_cp[jp]:
            problems.append(f"port {jp}: Choi check {result.flagged_cp[jp]} "
                            "on the flagged steps")
        if not all(result.falling_cp[jp]) or not result.falling_cp[jp]:
            problems.append(f"port {jp}: Choi check {result.falling_cp[jp]} "
                            "on falling steps")
    return problems


def check_oracle(rc: int, text: str) -> list[str]:
    """oracle-check passed, and its printed deviations are within thresholds."""
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    try:
        state = float(fields["max_deviation"])
        prob = float(fields["probability_deviation"])
    except (KeyError, ValueError):
        return [f"unreadable output {text!r}"]
    problems = []
    if rc != 0 or fields.get("verdict") != "PASS":
        problems.append(f"exit {rc}, verdict {fields.get('verdict')!r}")
    if not state <= ORACLE_STATE_TOL:
        problems.append(f"max_deviation {state!r} > {ORACLE_STATE_TOL}")
    if not prob <= ORACLE_PROB_TOL:
        problems.append(f"probability_deviation {prob!r} > {ORACLE_PROB_TOL}")
    return problems


def oracle_cells(doc: dict, times) -> int:
    """State comparisons oracle-check makes: three inside locations up to the
    start of the output coupling, the averaged and every bright conditional
    output location from it on."""
    s = ref.Setup(doc)
    start = s.out[2]
    times = np.asarray(times)
    bright = sum(p >= ref.DARK_PORT_TOL for p in ref.port_probabilities(s))
    inside = int(np.sum((times >= 0) & (times <= start)))
    outside = int(np.sum(times >= start))
    return 3 * inside + (1 + bright) * outside
