"""Command-line interface: config ingestion, trace-distance sweeps to CSV,
path-difference estimation, divisibility reports and oracle checks.

Exit codes: 0 ok, 1 check failure, 2 config error, 3 estimator out of regime.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import select
import sys
from importlib.resources import files

import numpy as np

from . import analysis, maps, oracle
from .core import (
    MAX_GRID_POINTS,
    FrequencyDistribution,
    InteractionWindow,
    InterferometerConfig,
    PolarizationState,
    effective_time,
)
from .errors import (
    ConfigError,
    EstimatorOutOfRegime,
    ImpossibleOutcome,
    PeakNotFound,
)
from .interferometer import (
    LOCATION_STAGES,
    coherence_factors,
    conditional_state_outside,
    path_probabilities,
)

ORACLE_CHECK_THRESHOLD = 1e-5
ORACLE_PROB_THRESHOLD = 1e-8

_SQ2 = 1.0 / math.sqrt(2.0)
# every numeric config field by section, in the order checked, with its
# default, or None when it is required
_SCHEMA = {
    "distribution": {"mu_over_sigma": None},
    "arm0": {"n_h": None, "n_v": None, "t_start": 0.0, "t_stop": None},
    "arm1": {"n_h": None, "n_v": None, "t_start": 0.0, "t_stop": None},
    "output": {"n_h": None, "n_v": None, "t_start": None, "t_stop": math.inf},
    "polarization": {"ch_re": _SQ2, "ch_im": 0.0, "cv_re": _SQ2, "cv_im": 0.0, "theta": 0.0},
}


def preset_path(name: str):
    """Path of a shipped experiment preset (dtau10, dtau2p5, dtau1p5, dtau0p5, dtau0)."""
    return files("mzdephase").joinpath("presets", f"{name}.json")


def _section(data: dict, name: str, problems: list[str]) -> dict[str, float]:
    """The numbers of section ``name`` as floats, an absent field at its
    default.  Each problem is reported under its field path and leaves its
    field out; a missing or malformed section leaves out every field.  Only
    ``polarization`` may be absent."""
    fields = _SCHEMA[name]
    if name not in data and name != "polarization":
        problems.append(f"{name}: missing required section")
        return {}
    section = data.get(name, {})
    if not isinstance(section, dict):
        problems.append(f"{name}: expected an object")
        return {}
    for key in sorted(set(section) - set(fields)):
        problems.append(f"{name}.{key}: unknown field")
    values = {}
    for key, default in fields.items():
        value = section.get(key)
        # null stands for the default only where that is inf: the output's
        # t_stop, for a coupling that runs freely once started
        if key not in section or (value is None and default == math.inf):
            if default is None:
                problems.append(f"{name}.{key}: missing required field")
            else:
                values[key] = default
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}.{key}: expected a number, got {value!r}")
        elif not abs(value) <= sys.float_info.max:  # inf, nan, or an int beyond any float
            problems.append(f"{name}.{key}: must be finite")
        else:
            values[key] = float(value)
    return values


def build_config(data: dict) -> tuple[InterferometerConfig, dict]:
    """Validate a parsed config document, reporting every problem at once."""
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected an object"])
    for key in sorted(set(data) - {*_SCHEMA, "run"}):
        problems.append(f"{key}: unknown section")

    ratio = _section(data, "distribution", problems).get("mu_over_sigma")
    dist = None if ratio is None else FrequencyDistribution(mu=ratio)

    windows = {}
    for name in ("arm0", "arm1", "output"):
        values = _section(data, name, problems)
        if len(values) < len(_SCHEMA[name]):
            continue
        nonpositive = next((key for key in ("n_h", "n_v") if values[key] <= 0), None)
        if nonpositive:
            problems.append(f"{name}.{nonpositive}: refractive index must be positive")
        elif values["t_start"] < 0:
            problems.append(f"{name}.t_start: negative times are not allowed")
        else:
            try:
                windows[name] = InteractionWindow(**values)
            except ValueError as exc:
                problems.append(f"{name}: {exc}")

    # a field with a problem keeps its default, so the state is still checked
    pol_data = {**_SCHEMA["polarization"], **_section(data, "polarization", problems)}
    pol = None
    try:
        pol = PolarizationState(
            complex(pol_data["ch_re"], pol_data["ch_im"]),
            complex(pol_data["cv_re"], pol_data["cv_im"]),
            pol_data["theta"],
        )
    except ValueError as exc:
        problems.append(f"polarization: {exc}")

    run = data.get("run", {})
    if not isinstance(run, dict):
        problems.append("run: expected an object")
        run = {}
    for key in sorted(set(run) - {"grid", "locations", "n_freq"}):
        problems.append(f"run.{key}: unknown field")

    cfg = None
    if dist and pol and len(windows) == 3:
        try:
            cfg = InterferometerConfig(
                dist, windows["arm0"], windows["arm1"], windows["output"], pol
            )
        except ValueError as exc:
            problems.append(f"output.t_start: {exc}")
    if problems or cfg is None:
        raise ConfigError(problems or ["config could not be constructed"])
    # an arm's delays, which the interference weights take at every time,
    # before anything reads them (cfg.outside_terms)
    for section, window in (("arm0", cfg.window0), ("arm1", cfg.window1)):
        _check_window_delays(cfg, section, window, window.duration)
    return cfg, run


def load_config(path) -> tuple[InterferometerConfig, dict]:
    """Read and validate a JSON experiment description.

    ``preset:NAME`` resolves to one of the shipped presets.
    """
    if isinstance(path, str) and path.startswith("preset:"):
        path = preset_path(path.removeprefix("preset:"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"])
    except ValueError as exc:  # bad JSON or UTF-8, or an integer with too many digits
        raise ConfigError([f"{path}: invalid JSON: {exc}"])
    return build_config(data)


def parse_grid(spec: str, min_points: int = 1, field: str = "grid") -> np.ndarray:
    """Parse START:STOP:STEP into an inclusive, deterministic time grid of at
    least ``min_points`` and at most ``MAX_GRID_POINTS`` times, strictly
    increasing: a spec whose points round onto each other is refused.
    Problems are reported under ``field``."""
    parts = spec.split(":") if isinstance(spec, str) else []
    if len(parts) != 3:
        raise ConfigError([f"{field}: expected START:STOP:STEP, got {spec!r}"])
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError([f"{field}: non-numeric component in {spec!r}"])
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError([f"{field}: components must be finite in {spec!r}"])
    if step <= 0 or stop < start:
        raise ConfigError([f"{field}: need stop >= start and step > 0 in {spec!r}"])
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ConfigError(
            [f"{field}: {spec!r} has more than {MAX_GRID_POINTS} points"]
        )
    count = int(math.floor(steps)) + 1
    if count < min_points:
        raise ConfigError(
            [f"{field}: {spec!r} has {count} point(s), at least {min_points} needed"]
        )
    grid = start + step * np.arange(count)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError([f"{field}: points of {spec!r} round onto each other"])
    return grid


# largest delay n * t that one coupling may accumulate: the closed forms
# square sums of up to two such delays, which then stay finite
_MAX_DELAY = math.sqrt(sys.float_info.max) / 4.0


def _check_window_delays(cfg: InterferometerConfig, section: str, window: InteractionWindow,
                         t: float) -> None:
    """Refuse a delay n * t that a coupling accumulates over a coupling time
    t: one beyond ``_MAX_DELAY`` under its index, or one that mu turns into a
    phase that overflows at the largest oracle frequency."""
    for key in ("n_h", "n_v"):
        delay = getattr(window, key) * t
        if not delay <= _MAX_DELAY:
            raise ConfigError([f"{section}.{key}: delay {delay:g} overflows when squared"])
        if not math.isfinite((abs(cfg.dist.mu) + oracle.HALF_WIDTH) * 2.0 * delay):
            raise ConfigError([
                f"distribution.mu_over_sigma: {cfg.dist.mu:g} turns the delay {delay:g} "
                f"of {section}.{key} into a phase that overflows"
            ])


def _check_delays(cfg: InterferometerConfig, t_last: float) -> None:
    """_check_window_delays of the output coupling by laboratory time t_last;
    build_config checks the arms' over their whole durations."""
    out = cfg.window_out
    _check_window_delays(cfg, "output", out, effective_time(out, float(t_last)))


# printf-style, which formats a float faster than str.format and spells it
# the same
_FLOAT_CELL = "%.17g"


def _fmt(value: float) -> str:
    return _FLOAT_CELL % value


def cmd_sweep(cfg: InterferometerConfig, grid: np.ndarray, locations, out) -> int:
    """Write one CSV row per grid time with the requested trace distances,
    port probabilities and output-port H populations."""
    limit = cfg.window_out.t_start
    for loc in locations:
        if LOCATION_STAGES[loc][0] == "inside" and (grid[0] < 0 or grid[-1] > limit):
            raise ConfigError(
                [f"locations: {loc} is only defined for times in [0, {limit}]"]
            )
    _check_delays(cfg, grid[-1])

    header = ["tau"] + [f"D_{loc}" for loc in locations]
    header += ["p_out0", "p_out1", "popH_out0", "popH_out1"]
    # one row template: a float cell per grid time and bright location, an
    # empty one per dark location, then the time-independent columns
    cells, columns = [_FLOAT_CELL], [grid.tolist()]
    for loc in locations:
        try:
            c = coherence_factors(cfg, loc, grid)
        except ImpossibleOutcome:
            print(
                f"warning: {loc} is a dark port; emitting empty cells",
                file=sys.stderr,
            )
            cells.append("")
            continue
        cells.append(_FLOAT_CELL)
        columns.append(analysis.TraceDistanceSeries(grid, np.abs(c), loc).values.tolist())

    cells += [_fmt(p) for p in path_probabilities(cfg)]
    for jp in (0, 1):
        try:
            cells.append(_fmt(conditional_state_outside(cfg, jp, grid[0]).population_h))
        except ImpossibleOutcome:
            cells.append("")
    row = ",".join(cells)
    lines = [",".join(header)] + [row % values for values in zip(*columns)]
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return 0
    try:
        fh = open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:  # a directory, or a path in a missing one
        raise ConfigError([f"--out: {exc}"])
    with fh:  # a write error, such as a closed pipe, propagates
        fh.write(text)
    return 0


def cmd_estimate(cfg: InterferometerConfig, scan: tuple[float, float] | None) -> int:
    """Report the recoherence peak and the path-difference estimate."""
    if scan is None:
        scan = analysis.auto_scan_range(cfg)
    _check_delays(cfg, scan[1])
    analysis.check_estimator_regime(cfg)
    t_max, peak = analysis.lambda_peak(cfg, scan)
    estimate = analysis.time_difference_from_peak(cfg, t_max)
    t0, t1 = cfg.window0.duration, cfg.window1.duration
    index_mode = abs(t0 - t1) < 1e-12 and (
        cfg.window0.n_h != cfg.window1.n_h or cfg.window0.n_v != cfg.window1.n_v
    )
    print(f"peak_total_interaction_time: {_fmt(t_max)}")
    print(f"peak_value: {_fmt(peak)}")
    if index_mode:
        delta_idx = abs(cfg.window_out.delta_n) * t_max / t0
        truth = max(
            abs(cfg.window0.n_h - cfg.window1.n_h),
            abs(cfg.window0.n_v - cfg.window1.n_v),
        )
        print("estimated_quantity: index_difference")
        print(f"index_difference_estimate: {_fmt(delta_idx)}")
        print(f"ground_truth: {_fmt(truth)}")
        rel = abs(delta_idx - truth) / truth if truth else math.inf
    else:
        truth = abs(t0 - t1)
        print("estimated_quantity: interaction_time_difference")
        print(f"time_difference_estimate: {_fmt(estimate)}")
        print(f"ground_truth: {_fmt(truth)}")
        rel = abs(estimate - truth) / truth if truth else math.inf
    print(f"relative_error: {_fmt(rel) if math.isfinite(rel) else 'n/a'}")
    return 0


def cmd_divisibility(cfg: InterferometerConfig, grid: np.ndarray) -> int:
    """List non-CP-divisible intervals per output port next to the backflow
    intervals; any disagreement is an internal consistency failure."""
    _check_delays(cfg, grid[-1])
    step = float(np.max(np.diff(grid)))
    agree = True
    for jp, location in ((0, "path0_out"), (1, "path1_out")):
        try:
            c = coherence_factors(cfg, location, grid)
        except ImpossibleOutcome:
            print(f"port {jp}: dark port, no conditional dynamics")
            continue
        scan = maps.divisibility_scan(cfg, jp, grid)
        series = analysis.TraceDistanceSeries(grid, np.abs(c), location)
        backflow = analysis.backflow_intervals(series)
        print(f"port {jp}: {len(scan)} non-CP-divisible interval(s)")
        for lo, hi in scan:
            print(f"  non_cp_divisible: [{_fmt(lo)}, {_fmt(hi)}]")
        for lo, hi in backflow:
            print(f"  backflow:         [{_fmt(lo)}, {_fmt(hi)}]")
        same = len(scan) == len(backflow) and all(
            abs(a[0] - b[0]) <= step + 1e-12 and abs(a[1] - b[1]) <= step + 1e-12
            for a, b in zip(scan, backflow)
        )
        agree = agree and same
    print(f"consistency: {'OK' if agree else 'DISAGREEMENT'}")
    return 0 if agree else 1


def cmd_oracle_check(cfg: InterferometerConfig, n: int, times) -> int:
    """Compare closed forms against the brute-force evolution.

    Warns on stderr when the frequency grid aliases at some requested time,
    or when the rounding of the largest phase can reach the smaller of the
    two thresholds, because the deviation then measures the quadrature or
    the rounding, not the closed forms.
    """
    _check_delays(cfg, max(times))
    try:
        grid = oracle.FrequencyGrid.build(cfg.dist, n=n)
    except ValueError as exc:  # the only unchecked input is a mu too large
        raise ConfigError([
            f"distribution.mu_over_sigma: {cfg.dist.mu:g} is too large "
            f"for a uniform grid of n_freq={n} frequencies over mu +- "
            f"{oracle.HALF_WIDTH:g} sigma ({exc})"
        ]) from None
    delays = oracle.max_component_delay(cfg, times)
    bound = oracle.alias_free_delay(grid)
    beyond = np.flatnonzero(delays > bound)
    if len(beyond):
        print(
            f"warning: n_freq={n} resolves polarization-path delays up to "
            f"{bound:.6g} (alias period 2*pi/h less {oracle.ALIAS_MARGIN:g}/sigma), "
            f"first exceeded at t={_fmt(times[beyond[0]])}; the deviation then "
            "measures the quadrature, not the closed forms",
            file=sys.stderr,
        )
    # eps times the largest phase omega * x: an arm's delay n * t, which the
    # outside amplitudes carry, plus the largest component delay
    arm = max(idx * w.duration for w in (cfg.window0, cfg.window1) for idx in (w.n_h, w.n_v))
    rounding = np.finfo(float).eps * np.max(np.abs(grid.omegas)) * (arm + np.max(delays))
    if rounding >= ORACLE_PROB_THRESHOLD:
        print(
            f"warning: the rounding of the largest phase omega * x, up to "
            f"{rounding:.3g}, can reach the threshold {ORACLE_PROB_THRESHOLD:g}; the "
            "deviation then measures the rounding, not the closed forms",
            file=sys.stderr,
        )
    result = oracle.oracle_compare(cfg, grid, times)
    ok = (
        result.max_deviation <= ORACLE_CHECK_THRESHOLD
        and result.probability_deviation <= ORACLE_PROB_THRESHOLD
    )
    print(f"max_deviation: {_fmt(result.max_deviation)}")
    print(f"probability_deviation: {_fmt(result.probability_deviation)}")
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _n_freq(flag, run: dict) -> int:
    """Frequency grid size: the flag, else run.n_freq, else the default,
    from 3 to MAX_GRID_POINTS, checked before any grid is allocated."""
    field, value = "--n-freq", flag
    if value is None:
        field, value = "run.n_freq", run.get("n_freq", oracle.DEFAULT_N_FREQ)
    integer = isinstance(value, int) and not isinstance(value, bool)
    if not integer or not 3 <= value <= MAX_GRID_POINTS:
        raise ConfigError(
            [f"{field}: expected an integer from 3 to {MAX_GRID_POINTS}, got {value!r}"]
        )
    return value


def _default_times(cfg: InterferometerConfig) -> list[float]:
    """Ten times inside and ten outside, sharing the output start."""
    start, reach = analysis.auto_scan_range(cfg)
    inside = np.linspace(0.0, start, 10)
    outside = np.linspace(start, reach, 10)
    return [*inside, *outside[1:]]


def _sweep_locations(flag: str | None, run: dict) -> list[str]:
    """Sweep locations: the flag, else run.locations, else the output ones."""
    if flag is not None:
        field, raw, locations = "--locations", flag, flag.split(",")
    elif "locations" in run:
        field, raw = "run.locations", run["locations"]
        locations = raw if isinstance(raw, list) else []
    else:
        return ["path0_out", "path1_out", "joint_out"]
    if not locations or not all(loc in analysis.LOCATIONS for loc in locations):
        raise ConfigError([
            f"{field}: expected a list of one or more of "
            f"{', '.join(analysis.LOCATIONS)}; got {raw!r}"
        ])
    return locations


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzdephase",
        description="Dephasing and non-Markovianity analysis of a noisy "
        "Mach-Zehnder interferometer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON config")
    common.add_argument("--grid", help="time grid as START:STOP:STEP")

    p_sweep = sub.add_parser("sweep", parents=[common], help="trace-distance sweep to CSV")
    p_sweep.add_argument(
        "--locations",
        help="comma-separated subset of: " + ", ".join(analysis.LOCATIONS),
    )
    p_sweep.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")

    sub.add_parser("estimate", parents=[common], help="path-difference estimation")
    sub.add_parser("divisibility", parents=[common], help="CP-divisibility report")

    p_oracle = sub.add_parser("oracle-check", parents=[common], help="brute-force check")
    p_oracle.add_argument(
        "--n-freq", type=int,
        help=f"frequency grid size (default: run.n_freq, else {oracle.DEFAULT_N_FREQ})",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code."""
    args = _parser().parse_args(argv)
    try:
        cfg, run = load_config(args.config)
        # the flag, else run.grid; problems name the field the spec came from
        field, grid_spec = (
            ("grid", args.grid) if args.grid is not None else ("run.grid", run.get("grid"))
        )
        if args.command == "sweep":
            if grid_spec is None:
                raise ConfigError(["grid: required for sweep (flag --grid or run.grid)"])
            locations = _sweep_locations(args.locations, run)
            return cmd_sweep(cfg, parse_grid(grid_spec, 2, field), locations, args.out)
        if args.command == "estimate":
            scan = None
            if grid_spec is not None:
                grid = parse_grid(grid_spec, field=field)
                scan = (float(grid[0]), float(grid[-1]))
            return cmd_estimate(cfg, scan)
        if args.command == "divisibility":
            if grid_spec is None:
                raise ConfigError(["grid: required for divisibility"])
            return cmd_divisibility(cfg, parse_grid(grid_spec, 2, field))
        if args.command == "oracle-check":
            n = _n_freq(args.n_freq, run)
            if grid_spec is None:
                return cmd_oracle_check(cfg, n, _default_times(cfg))
            times = parse_grid(grid_spec, field=field)
            if times[0] < 0:  # the oracle has no state before t = 0
                raise ConfigError([f"{field}: times must not be negative in {grid_spec!r}"])
            return cmd_oracle_check(cfg, n, list(times))
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (EstimatorOutOfRegime, PeakNotFound) as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return 3


def console() -> int:
    """Console entry point: main() on the process arguments.  If the reader
    of standard output closes it early, the command ends with exit code 1
    and no traceback; every other error propagates."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        if not _reader_gone(sys.stdout):
            raise
        # as the Python docs advise, point standard output at devnull, so
        # that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _reader_gone(stream) -> bool:
    """Whether stream is a pipe or socket whose reading end is closed."""
    poller = select.poll()
    poller.register(stream.fileno(), select.POLLOUT)
    return any(events & (select.POLLERR | select.POLLHUP) for _, events in poller.poll(0))


if __name__ == "__main__":
    sys.exit(console())
