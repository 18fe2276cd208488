"""Every ``BENCH_*.json`` at the repository root records one change's
benchmark: ``bench/run.py`` runs in alternating parent/change pairs, each
run's last JSON line kept whole.  These tests check the fields, that every
run was correct with nothing failed, and that the medians and the pair
counts follow from the runs.  They compare no timing, so a slow host cannot
fail them."""
import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
SIDES = ("parent", "change")
MIN_PAIRS = 3

FIELDS = {"commit", "parent", "python", "numpy", "host", "command", "workloads"}
WORKLOAD_FIELDS = {"workload", "seed", "seconds", "runs", "medians", "pairs_won"}
RESULT_FIELDS = {"correct", "attempted", "failed", "metrics"}


def _missing(where: str, have: dict, want: set) -> list[str]:
    return [f"{where}: no field {name!r}" for name in sorted(want - set(have))]


def _run_problems(where: str, run: dict) -> list[str]:
    problems = _missing(where, run, {"side", "result"})
    if problems:
        return problems
    if run["side"] not in SIDES:
        problems.append(f"{where}: side {run['side']!r} is neither parent nor change")
    result = run["result"]
    problems += _missing(f"{where} result", result, RESULT_FIELDS)
    if problems:
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: correct {result['correct']!r} with {result['failed']!r} failed")
    for name, metric in METRICS.items():
        entry = result["metrics"].get(name)
        if entry is None or entry.get("unit") != metric["unit"] or not isinstance(
                entry.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} is {entry!r}")
    return problems


def _won(metric: str, parent: float, change: float) -> bool:
    return change < parent if METRICS[metric]["better"] == "lower" else change > parent


def _workload_problems(where: str, entry: dict) -> list[str]:
    problems = _missing(where, entry, WORKLOAD_FIELDS)
    if problems:
        return problems
    if entry["workload"] not in WORKLOADS:
        problems.append(f"{where}: unknown workload {entry['workload']!r}")
    for i, run in enumerate(entry["runs"]):
        problems += _run_problems(f"{where} run {i}", run)
    if problems:
        return problems
    values = {side: {name: [r["result"]["metrics"][name]["value"]
                            for r in entry["runs"] if r["side"] == side] for name in METRICS}
              for side in SIDES}
    pairs = len(values["parent"]["setup_s"])
    if pairs != len(values["change"]["setup_s"]) or pairs < MIN_PAIRS:
        return [f"{where}: {pairs} parent and {len(values['change']['setup_s'])} change runs, "
                f"want equal counts of at least {MIN_PAIRS}"]
    for name in METRICS:
        for side in SIDES:
            want = statistics.median(values[side][name])
            got = entry["medians"].get(side, {}).get(name)
            if got is None or not math.isclose(got, want, rel_tol=1e-12):
                problems.append(f"{where}: {side} median of {name} is {got!r}, its runs give {want!r}")
        won = sum(_won(name, p, c) for p, c in zip(values["parent"][name], values["change"][name]))
        if entry["pairs_won"].get(name) != won:
            problems.append(f"{where}: change won {entry['pairs_won'].get(name)!r} pairs "
                            f"of {name}, its runs give {won}")
    return problems


def bench_file_problems(path: Path) -> list[str]:
    """What is wrong with one benchmark file, an empty list when nothing is."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = _missing(path.name, doc, FIELDS)
    if problems:
        return problems
    for key in ("commit", "parent"):
        if not (isinstance(doc[key], str) and len(doc[key]) == 40
                and all(ch in "0123456789abcdef" for ch in doc[key])):
            problems.append(f"{path.name}: {key} {doc[key]!r} is not a full commit hash")
    if not doc["workloads"]:
        problems.append(f"{path.name}: no workload")
    for entry in doc["workloads"]:
        problems += _workload_problems(f"{path.name} {entry.get('workload')}", entry)
    return problems


def test_a_benchmark_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_benchmark_file_is_well_formed(path):
    assert bench_file_problems(path) == []


def _spoiled(tmp_path, spoil) -> Path:
    doc = json.loads(FILES[-1].read_text(encoding="utf-8"))
    spoil(doc)
    path = tmp_path / "BENCH_spoiled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("spoil, message", [
    (lambda doc: doc.pop("numpy"), "no field 'numpy'"),
    (lambda doc: doc["workloads"][0].pop("medians"), "no field 'medians'"),
    (lambda doc: doc["workloads"][0]["runs"][1]["result"]["metrics"].pop("op_p50_s"),
     "metric op_p50_s is None"),
    (lambda doc: doc["workloads"][0]["runs"][0]["result"].update(correct=False),
     "correct False with 0 failed"),
    (lambda doc: doc["workloads"][0]["runs"][0]["result"].update(failed=2),
     "correct True with 2 failed"),
    (lambda doc: doc["workloads"][0]["medians"]["change"].update(cells_per_s=1.0),
     "change median of cells_per_s is 1.0"),
    (lambda doc: doc["workloads"][0]["runs"].pop(), "want equal counts"),
], ids=["top-field", "workload-field", "metric", "incorrect-run", "failed-run", "median",
        "unpaired-run"])
def test_a_spoiled_file_is_refused(tmp_path, spoil, message):
    problems = bench_file_problems(_spoiled(tmp_path, spoil))
    assert any(message in p for p in problems), problems
