"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They cover the self-time arithmetic, the metric names, a smoke run of every
workload at orders 1-3 through the correctness gate, and the gate's
detection of a wrong reference or an exception that escapes run_check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import make_reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _span(name, start, end, parent):
    return (name, start, end, parent, "r")


# a check that calls a characters function (which multiplies twice) and then
# enumerates partitions, which enumerates again inside itself
TREE = [
    _span("cli.check.x", 0.0, 10.0, -1),
    _span("characters.quasiparticle_chi", 1.0, 6.0, 0),
    _span("qseries.mul", 2.0, 3.0, 1),
    _span("qseries.mul", 4.0, 4.5, 1),
    _span("partitions.enumerate_P", 7.0, 9.5, 0),
    _span("partitions.enumerate_P", 8.0, 9.0, 4),
]


def test_self_times_subtract_direct_children():
    assert spans.self_times(TREE) == [10 - 5 - 2.5, 5 - 1 - 0.5, 1.0, 0.5, 1.5, 1.0]


def test_covered_time_counts_nested_spans_once():
    assert spans.covered_time(TREE, {"partitions.enumerate_P"}) == 2.5
    assert spans.covered_time(TREE, {"qseries.mul"}) == 1.5
    assert spans.covered_time(TREE, {"cli.check.x", "qseries.mul"}) == 10.0


def test_layer_self_times_from_a_synthetic_tree():
    rec = spans.Recorder(lambda: 0.0)
    rec.spans.extend(TREE)
    m = rec.layer_metrics(["x"])
    assert m["cli.self_s"] == 2.5
    assert m["characters.self_s"] == 3.5
    assert m["qseries.self_s"] == 1.5
    assert m["qseries.mul.calls"] == 2
    assert m["partitions.self_s"] == 2.5
    assert m["partitions.enumerate_P.s"] == 2.5
    assert m["characters.quasiparticle.s"] == 5.0
    assert m["cli.check.x.s"] == 10.0
    total_self = sum(m["%s.self_s" % layer] for layer in spans.LAYERS)
    assert total_self == pytest.approx(10.0)


def test_metric_names_are_well_formed_and_match_the_benchmark():
    produced = set(spans.Recorder(lambda: 0.0).layer_metrics(workloads.ALL_COMMANDS))
    produced.add("trace.overhead_s")
    declared = {m["name"] for m in BENCH["per_layer"]}
    assert produced == declared
    names = declared | {m["name"] for m in BENCH["end_to_end"]} | set(run.END_TO_END)
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.END_TO_END)
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_seed_zero_gives_the_listed_orders_and_seeds_are_reproducible():
    for w in workloads.WORKLOADS.values():
        assert workloads.orders_for(w, 0) == w.orders
        for seed in (1, 2, 77):
            orders = workloads.orders_for(w, seed)
            assert orders == workloads.orders_for(w, seed)
            for key, value in orders.items():
                assert value in workloads.window_orders(w)[key]


def _smoke(workload, k, trace=False):
    orders = make_reference.smoke_orders(workload, k)
    spec = run.make_spec(workload, orders, trace, "smoke")
    result, _ = run.run_worker(spec)
    return orders, result


@pytest.fixture(scope="module")
def smoke_runs():
    run.SCRATCH.mkdir(exist_ok=True)
    return {(name, k): _smoke(w, k)
            for name, w in workloads.WORKLOADS.items() for k in make_reference.SMOKE_ORDERS}


def test_smoke_run_of_every_workload_passes_the_gate(smoke_runs):
    for (name, k), (orders, result) in smoke_runs.items():
        w = workloads.WORKLOADS[name]
        problems = run.gate(w, orders, result["outputs"], run.load_reference(name))
        assert [p for p in problems if p[1] is not None] == [], (name, k)
        assert len(problems) == len(w.commands)


def test_a_corrupted_reference_is_detected(smoke_runs):
    w = workloads.WORKLOADS["battery-half"]
    orders, result = smoke_runs[("battery-half", 2)]
    reference = run.load_reference(w.name)
    key = workloads.reference_key("characters-equal", orders)
    for corrupt in ({"data_sha256": "0" * 64},
                    {"checks": [c[:2] + ["3"] for c in reference[key]["checks"]]}):
        bad = dict(reference, **{key: dict(reference[key], **corrupt)})
        problems = dict(run.gate(w, orders, result["outputs"], bad))
        assert problems["characters-equal"].startswith("output differs"), corrupt
        assert [c for c, p in problems.items() if p is not None] == ["characters-equal"]


def test_an_escaping_exception_is_a_failure_and_the_run_goes_on():
    reference = run.load_reference("battery-half")
    w = workloads.Workload("two-checks", ("characters-equal", "nahm-e8"),
                           {"trunc_qseries": 1, "trunc_e8": 1}, {})
    spec = run.make_spec(w, w.orders, False, "raises")
    # a negative order makes the series constructors raise inside run_check
    spec["jobs"][0][1]["trunc_qseries"] = -1
    result, _ = run.run_worker(spec)
    problems = dict(run.gate(w, w.orders, result["outputs"], reference))
    assert problems["characters-equal"].startswith("raised ")
    assert problems["nahm-e8"] is None


def test_traced_smoke_run_reports_every_per_layer_metric():
    w = workloads.WORKLOADS["battery-half"]
    _, result = _smoke(w, 2, trace=True)
    declared = {m["name"] for m in BENCH["per_layer"]} - {"trace.overhead_s"}
    assert set(result["layers"]) == declared
    assert result["missing_entry_points"] == []
    for layer in spans.LAYERS:
        assert result["layers"]["%s.self_s" % layer] > 0, layer
    for command in workloads.ALL_COMMANDS:
        assert result["layers"]["cli.check.%s.s" % command] > 0, command


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_result_line(trace, kind):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "elimination",
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=str(run.ROOT), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {m: v["unit"] for m, v in out["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_run_fails_without_the_program():
    bare = run.SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "elimination",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=str(bare), capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
