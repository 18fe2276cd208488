"""The three workloads.  Each is a closed loop with one caller: the next
operation starts after the previous one returns.

A workload object holds its seeded inputs and the program modules it calls.
``call`` runs one operation and returns its wall time (of the program calls
only) and its result; ``check`` compares the result with the reference;
``cells`` counts the (time, location) cells the operation computes.  A
host-speed ``probe``, when set, samples the host during each operation.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import warnings
from . import checks, inputs
from .hostspeed import Stopwatch


def _run_cli(cli, argv, probe=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with Stopwatch(probe) as watch:
            rc = cli.main(list(argv))
    return watch.elapsed, (rc, out.getvalue(), err.getvalue())


class SweepLong:
    """``cli.main`` sweep commands on the presets, CSV captured in memory."""

    name = "sweep-long"
    probe = None

    def __init__(self, mz, seed: int, docs: dict):
        self.cli = mz.cli
        self.docs = docs
        self.items = inputs.sweep_commands()
        self._expected: dict = {}
        self._digests: dict = {}
        self.csv_bytes = 0

    def warm_up(self):
        _run_cli(self.cli, ("sweep", "--config", "preset:dtau10", "--grid", "60:80:1"))

    def call(self, item):
        return _run_cli(self.cli, item.argv, self.probe)

    def _expect(self, item):
        if item.argv not in self._expected:
            self._expected[item.argv] = checks.expected_sweep(
                self.docs[item.preset], inputs.parse_grid(item.grid), item.locations)
        return self._expected[item.argv]

    def cells(self, item) -> int:
        columns = self._expect(item)["columns"]
        return len(inputs.parse_grid(item.grid)) * sum(c is not None for c in columns.values())

    def check(self, item, result) -> list[str]:
        rc, out, err = result
        self.csv_bytes += len(out.encode())
        if rc != 0:
            return [f"{' '.join(item.argv)}: exit {rc}: {err.strip()}"]
        expect = self._expect(item)
        problems = checks.check_sweep_csv(out, expect)
        dark = any(c is None for c in expect["columns"].values())
        if dark != ("dark port" in err):
            problems.append(f"dark-port warning {err.strip()!r}, dark={dark}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self._digests.setdefault(item.argv, digest) != digest:
            problems.append("output differs from an earlier run of the same command")
        return [f"{' '.join(item.argv)}: {p}" for p in problems]


class ScanMany:
    """Seeded random configs through the Python API: estimate, peak,
    divisibility and trace-distance series on both ports, Choi checks."""

    name = "scan-many"
    probe = None

    def __init__(self, mz, seed: int, docs: dict):
        self.cli, self.analysis, self.maps = mz.cli, mz.analysis, mz.maps
        self.interferometer = mz.interferometer
        self.items = inputs.scan_inputs(seed)

    def warm_up(self):
        self.call(self.items[0])

    def call(self, item):
        a, m = self.analysis, self.maps
        grid = item.grid
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with Stopwatch(self.probe) as watch:
                cfg, _ = self.cli.build_config(item.doc)
                estimate = a.estimate_interaction_time_difference(cfg)
                t_max, peak = a.lambda_peak(cfg, item.scan)
                result = checks.ScanResult(
                    estimate, t_max, peak, self.interferometer.path_probabilities(cfg),
                    [], [], [], [], [], [])
                for jp in (0, 1):
                    non_cp = m.divisibility_scan(cfg, jp, grid)
                    series = a.trace_distance_series(cfg, f"path{jp}_out", grid)
                    flagged = checks.flagged_steps(grid, non_cp)
                    falling = checks.falling_steps(series.values, flagged)
                    result.series.append(series.values)
                    result.blp.append(a.blp_measure(series))
                    result.backflow.append(a.backflow_intervals(series))
                    result.non_cp.append(non_cp)
                    for steps, verdicts in ((flagged, result.flagged_cp),
                                            (falling, result.falling_cp)):
                        verdicts.append([
                            m.is_completely_positive(m.propagator(cfg, jp, grid[k], grid[k + 1]))
                            for k in steps
                        ])
        return watch.elapsed, (result, [str(w.message) for w in caught])

    def cells(self, item) -> int:
        # trace-distance series and divisibility scan, on both ports
        return 4 * len(item.grid)

    def check(self, item, result) -> list[str]:
        result, caught = result
        problems = [f"warning: {w}" for w in caught]
        problems += checks.check_scan(result, item.doc, item.scan, item.grid)
        return [f"scan config {item.doc}: {p}" for p in problems]


class OracleDense:
    """``cli.main`` oracle-check commands on the presets over a range of
    frequency-grid sizes, all within the alias-free horizon."""

    name = "oracle-dense"
    probe = None

    def __init__(self, mz, seed: int, docs: dict):
        self.cli = mz.cli
        self.docs = docs
        self.items = inputs.oracle_commands(seed, docs)
        self._cells = {
            item.argv: checks.oracle_cells(docs[item.preset], item.times)
            for item in self.items
        }

    def warm_up(self):
        _run_cli(self.cli, ("oracle-check", "--config", "preset:dtau10",
                            "--grid", "0:120:60", "--n-freq", "201"))

    def call(self, item):
        return _run_cli(self.cli, item.argv, self.probe)

    def cells(self, item) -> int:
        return self._cells[item.argv]

    def check(self, item, result) -> list[str]:
        rc, out, err = result
        problems = checks.check_oracle(rc, out)
        if err:
            problems.append(f"stderr {err.strip()!r}")
        return [f"{' '.join(item.argv)}: {p}" for p in problems]


WORKLOADS = {w.name: w for w in (SweepLong, ScanMany, OracleDense)}
