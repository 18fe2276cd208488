"""Benchmark of mzdephase, run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it sets the program up several times, then runs whole
rounds of the workload's operations for about S seconds, checks every output
against an independent reference, and prints the end-to-end metrics, their
times scaled to a reference host speed (see ``hostspeed.py``).  With
``--trace 1`` it instead runs one fixed round of every workload with spans
recorded around the package's public functions, and prints the per-layer
metrics.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# numerical libraries run single-threaded; set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 11
# every operation runs at least this often, so repeats can be compared
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name or counter, field, unit)
PER_LAYER = {
    "core.DensityMatrix.calls": ("core.DensityMatrix", "calls", "count"),
    "core.trace_distance.calls": ("core.trace_distance", "calls", "count"),
    "core.trace_distance.self_s": ("core.trace_distance", "self_s", "s"),
    "core.kappa_of_delay.calls": ("core.kappa_of_delay", "calls", "count"),
    "core.kappa_of_delay.self_s": ("core.kappa_of_delay", "self_s", "s"),
    "channels.single_path_state.calls": ("channels.single_path_state", "calls", "count"),
    "interferometer.OutputFunctions.from_config.calls":
        ("interferometer.OutputFunctions.from_config", "calls", "count"),
    "interferometer.conditional_state_outside.self_s":
        ("interferometer.conditional_state_outside", "self_s", "s"),
    "interferometer.joint_state_inside.self_s":
        ("interferometer.joint_state_inside", "self_s", "s"),
    "interferometer.averaged_state_outside.self_s":
        ("interferometer.averaged_state_outside", "self_s", "s"),
    "interferometer.path_probabilities.calls":
        ("interferometer.path_probabilities", "calls", "count"),
    "interferometer.lambda_function.self_s":
        ("interferometer.lambda_function", "self_s", "s"),
    "analysis.trace_distance_series.calls":
        ("analysis.trace_distance_series", "calls", "count"),
    "analysis.trace_distance_series.points":
        ("analysis.trace_distance_series", "counter", "count"),
    "analysis.trace_distance_series.self_s":
        ("analysis.trace_distance_series", "self_s", "s"),
    "analysis.lambda_peak.self_s": ("analysis.lambda_peak", "self_s", "s"),
    "analysis.estimate_interaction_time_difference.self_s":
        ("analysis.estimate_interaction_time_difference", "self_s", "s"),
    "analysis.backflow_intervals.self_s": ("analysis.backflow_intervals", "self_s", "s"),
    "analysis.blp_measure.self_s": ("analysis.blp_measure", "self_s", "s"),
    "maps.divisibility_scan.self_s": ("maps.divisibility_scan", "self_s", "s"),
    "maps.propagator.calls": ("maps.propagator", "calls", "count"),
    "maps.is_completely_positive.self_s": ("maps.is_completely_positive", "self_s", "s"),
    "intervals.merge_rising_steps.self_s": ("_intervals.merge_rising_steps", "self_s", "s"),
    "oracle.FrequencyGrid.build.self_s": ("oracle.FrequencyGrid.build", "self_s", "s"),
    "oracle.oracle_state.calls": ("oracle.oracle_state", "calls", "count"),
    "oracle.oracle_state.self_s": ("oracle.oracle_state", "self_s", "s"),
    "oracle.oracle_port_probabilities.calls":
        ("oracle.oracle_port_probabilities", "calls", "count"),
    "oracle.oracle_port_probabilities.self_s":
        ("oracle.oracle_port_probabilities", "self_s", "s"),
    "oracle.oracle_compare.self_s": ("oracle.oracle_compare", "self_s", "s"),
    "oracle.amplitude_bytes_computed": ("oracle.amplitudes", "counter", "bytes"),
    "cli.load_config.self_s": ("cli.load_config", "self_s", "s"),
    "cli.build_config.self_s": ("cli.build_config", "self_s", "s"),
    "cli.parse_grid.self_s": ("cli.parse_grid", "self_s", "s"),
    "cli.cmd_sweep.self_s": ("cli.cmd_sweep", "self_s", "s"),
    "cli.csv_bytes": ("cli.csv", "counter", "bytes"),
    "cli.cmd_oracle_check.self_s": ("cli.cmd_oracle_check", "self_s", "s"),
}


def _amplitude_bytes(n_freq: int, outside: bool) -> int:
    """Bytes of the complex amplitude arrays one oracle evaluation builds:
    psi[2 polarizations, n_freq, 2 paths], and once more after the output
    beam splitter."""
    return 16 * 2 * n_freq * 2 * (2 if outside else 1)


SPAN_COUNTERS = {
    "analysis.trace_distance_series": lambda a, k: len(a[2] if len(a) > 2 else k["grid"]),
    "oracle.oracle_state": lambda a, k: _amplitude_bytes(
        len(a[1].omegas), (a[3] if len(a) > 3 else k["stage"]) == "outside"),
    "oracle.oracle_port_probabilities": lambda a, k: _amplitude_bytes(len(a[1].omegas), True),
}


def import_package():
    """A fresh import of mzdephase from the checkout's sources."""
    for name in [m for m in sys.modules if m == "mzdephase" or m.startswith("mzdephase.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mz = importlib.import_module("mzdephase")
    for sub in ("cli", "analysis", "maps", "interferometer", "oracle"):
        importlib.import_module(f"mzdephase.{sub}")
    if Path(mz.__file__).resolve().parent != SRC / "mzdephase":
        raise RuntimeError(f"imported mzdephase from {mz.__file__}, not from {SRC}")
    return mz


def set_up(names, seed):
    """Import, load the presets, generate inputs and warm up; returns the
    wall time and the workload objects."""
    from bench import inputs, workloads

    t0 = perf_counter()
    mz = import_package()
    for preset in inputs.PRESETS:
        mz.cli.load_config(f"preset:{preset}")
    docs = inputs.preset_docs(SRC)
    made = [workloads.WORKLOADS[name](mz, seed, docs) for name in names]
    for wl in made:
        wl.warm_up()
    return perf_counter() - t0, mz, made


class Tally:
    """Outcomes of the operations run.  With a host-speed ``probe``, a block
    of samples precedes every operation; the caller adds one after the last."""

    def __init__(self, probe=None):
        self.probe = probe
        self.durations: list[float] = []
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def run_round(self, wl, seed: int, round_index: int) -> None:
        from bench import inputs

        for k in inputs.round_order(seed, round_index, len(wl.items)):
            item = wl.items[k]
            self.attempted += 1
            if self.probe is not None:
                self.probe.block()
            try:
                elapsed, result = wl.call(item)
            except Exception:  # an operation that raises counts as failed
                if self.probe is not None:
                    self.probe.discard()
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
                continue
            self.durations.append(elapsed)
            self.cells += wl.cells(item)
            self.problems += wl.check(item, result)


def run_untraced(name: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    from bench import hostspeed, spans

    setups, setup_probe = [], hostspeed.Probe()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup_probe.block()
        elapsed, _, (wl,) = set_up([name], seed)
        setups.append(elapsed)
    setup_probe.block()
    gc.collect()
    tally = Tally(hostspeed.Probe())
    wl.probe = tally.probe
    begin = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or (perf_counter() - begin) * (rounds + 1) / rounds <= seconds:
        tally.run_round(wl, seed, rounds)
        rounds += 1
    tally.probe.block()
    setups_scaled = setup_probe.scale(setups)
    ops = tally.probe.scale(tally.durations)
    p50 = spans.median(ops)
    tail = spans.tail_percentile(ops)
    print(f"{name}: {rounds} rounds, {tally.attempted} operations, "
          f"{tally.failed} failed, {tally.cells} cells, "
          f"{sum(tally.durations) / rounds:.3f} s in operations per round")
    print(f"host-speed block {spans.median(tally.probe.blocks) * 1e3:.3f} ms median "
          f"(reference {hostspeed.KERNEL_REF_S * 1e3:g} ms), "
          f"{sum(map(len, tally.probe.ticks))} ticks; unscaled: "
          f"setup {spans.median(setups):.6f} s, op p50 {spans.median(tally.durations):.6f} s, "
          f"{tally.cells / sum(tally.durations):.1f} cells/s")
    print(f"setup_s {spans.median(setups_scaled):.6f} s (median of {len(setups)})")
    print(f"op_p50_s {p50:.6f} s (n={len(ops)})")
    if tail:
        print(f"op_p{tail[0]:g}_s {tail[1]:.6f} s (n={len(ops)})")
    metrics = {
        "setup_s": spans.median(setups_scaled),
        "op_p50_s": p50,
        "cells_per_s": tally.cells / sum(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(seed: int) -> tuple[Tally, dict]:
    """One round of every workload, workload after workload, with spans."""
    from bench import spans, workloads

    names = list(workloads.WORKLOADS)
    _, mz, made = set_up(names, seed)
    recorder = spans.SpanRecorder()
    restore = spans.install(recorder, mz, SPAN_COUNTERS)
    tally = Tally()
    try:
        for wl in made:
            before = (len(tally.durations), len(recorder.start))
            tally.run_round(wl, seed, 0)
            print(f"{wl.name}: {len(tally.durations) - before[0]} operations, "
                  f"{sum(tally.durations[before[0]:]):.3f} s in operations, "
                  f"{len(recorder.start) - before[1]} spans (traced round)")
    finally:
        restore()
    table = recorder.table()
    counters = dict(recorder.counters)
    counters["oracle.amplitudes"] = (counters.pop("oracle.oracle_state", 0)
                                     + counters.pop("oracle.oracle_port_probabilities", 0))
    counters["cli.csv"] = sum(getattr(wl, "csv_bytes", 0) for wl in made)

    metrics = {}
    for metric, (source, field, unit) in PER_LAYER.items():
        if field == "counter":
            value = counters.get(source, 0)
        else:
            value = table.get(source, {}).get(field, 0)
        metrics[metric] = {"value": value, "unit": unit}
    OUT.mkdir(exist_ok=True)
    recorder.save(OUT / "spans.npz")
    (OUT / "layers.json").write_text(json.dumps(
        {"seed": seed, "workloads": names, "spans": len(recorder.start),
         "layers": table, "counters": counters}, indent=1, sort_keys=True))
    print(f"traced one round of {', '.join(names)}: {tally.attempted} operations, "
          f"{len(recorder.start)} spans -> {OUT / 'spans.npz'}")
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']} {entry['unit']}")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update({var: "1" for var in THREAD_VARS})
    if not (SRC / "mzdephase" / "__init__.py").is_file():
        print(f"no mzdephase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics = run_traced(args.seed)
    else:
        tally, metrics = run_untraced(args.workload, args.seed, args.seconds)
    for error in tally.errors[:3]:
        print(f"operation failed: {error}", file=sys.stderr)
    for problem in tally.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
