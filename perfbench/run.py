"""qvir benchmark: cold-process runs of one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qvir checkout.  Each sample starts a fresh
interpreter (perfbench/worker.py) with qvir's sources on its path, so every
module-level cache starts cold; samples run one after another until the time
budget is spent.  Every subcommand's output is checked against the reference
in perfbench/reference/.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
REFERENCE_DIR = HERE / "reference"
SAMPLE_TIMEOUT_S = 100
# set-up is short and noisy: time it in this many extra interpreters per run
SETUP_PROBES = 10
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no qvir sources, no reference, a worker died)."""


def run_worker(spec: dict, hash_seed: int = 0, timeout=SAMPLE_TIMEOUT_S, cpu=None) -> tuple:
    """Start one cold worker, on the given core if any; return (its result,
    the parent's start time)."""
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), json.dumps(spec)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # samples load bytecode, as installs do
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=timeout, preexec_fn=pin)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def make_spec(workload, orders: dict, trace: bool, run_id: str) -> dict:
    jobs = [[c, dict(orders)] for c in workload.commands]
    return {"jobs": jobs, "orders": orders, "via_main": workload.via_main,
            "trace": trace, "run_id": run_id,
            "out_dir": str(SCRATCH / ("out-%d" % os.getpid()))}


def metric_units() -> dict:
    """Unit of every metric, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchError("no %s" % path)
    bench = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / ("%s.json" % name)
    if not path.exists():
        raise BenchError("no reference outputs at %s" % path)
    return json.loads(path.read_text())


def gate(workload, orders: dict, outputs: list, reference: dict) -> list:
    """One (command, problem) pair per subcommand whose report failed, raised,
    or differs from the reference; problem is None when it passed."""
    out = []
    for command, got in zip(workload.commands, outputs):
        key = workloads.reference_key(command, orders)
        want = reference.get(key)
        if "error" in got:
            problem = "raised " + got["error"]
        elif not got["passed"]:
            problem = "report failed"
        elif want is None:
            problem = "no reference output for %s" % key
        elif got != want:
            problem = "output differs from the reference for %s" % key
        else:
            problem = None
        out.append((command, problem))
    return out


def tail_percentile(values: list):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    v = sorted(values)
    return 100.0 * (n - 10) / n, v[n - 11]


def collect(workload, orders: dict, seconds: float, trace: bool, reference: dict,
            seed: int = 0) -> dict:
    """Run cold samples until the time budget is spent; gate every output.

    With trace, untraced and traced samples alternate, so that the traced
    wall time can be set against the untraced one.  Each kind of sample
    takes the cores in turn, at least once each: on a shared machine one core
    can be much slower than the other for minutes, and taking them in turn
    keeps the mix of fast and slow samples the same from run to run.
    """
    SCRATCH.mkdir(exist_ok=True)
    cores = sorted(os.sched_getaffinity(0))
    # samples load bytecode, as installs do; compiling it is not timed
    compileall.compile_dir(str(ROOT / "src" / "qvir"), quiet=1)
    run_worker({"probe": True})  # not timed either: warms the interpreter's files
    start = time.perf_counter()
    setups = []
    for j in range(SETUP_PROBES):
        probe, t_spawn = run_worker({"probe": True}, cpu=cores[j % len(cores)])
        setups.append(probe["t_first"] - t_spawn)
    kinds = [False, True] if trace else [False]
    samples = {k: [] for k in kinds}
    longest = {k: 0.0 for k in kinds}
    problems = []
    attempted = 0
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        elapsed = time.perf_counter() - start
        if len(samples[kind]) >= len(cores) and elapsed + longest[kind] > seconds:
            break
        run_id = "%s-seed%d-%d" % (workload.name, seed, i)
        spec = make_spec(workload, orders, kind, run_id)
        if kind:
            spec["spans_out"] = str(SCRATCH / ("spans-%s-seed%d.jsonl" % (workload.name, seed)))
        t0 = time.perf_counter()
        result, t_spawn = run_worker(spec, cpu=cores[len(samples[kind]) % len(cores)])
        longest[kind] = max(longest[kind], time.perf_counter() - t0)
        result["setup_s"] = result["t_first"] - t_spawn
        setups.append(result["setup_s"])
        samples[kind].append(result)
        for command, problem in gate(workload, orders, result["outputs"], reference):
            attempted += 1
            if problem is not None:
                problems.append("%s: %s" % (command, problem))
        i += 1
    return {"samples": samples, "setups": setups, "attempted": attempted,
            "problems": problems}


def end_to_end_metrics(samples: list, setups: list) -> dict:
    out = {m: statistics.median(s[m] for s in samples) for m in END_TO_END if m != "setup_s"}
    out["setup_s"] = statistics.median(setups)
    return out


def layer_metrics(untraced: list, traced: list) -> dict:
    names = traced[0]["layers"]
    out = {m: statistics.median(s["layers"][m] for s in traced) for m in names}
    out["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                               - statistics.median(s["wall_s"] for s in untraced))
    return out


def summary_line(workload, orders, samples, setups, attempted, failed) -> str:
    parts = ["%s orders=%s samples=%d fail_share=%.4f" % (
        workload.name, json.dumps(orders, sort_keys=True), len(samples),
        failed / attempted if attempted else 1.0)]
    for m in ("wall_s", "cpu_s", "setup_s"):
        vals = setups if m == "setup_s" else [s[m] for s in samples]
        tail = tail_percentile(vals)
        parts.append("%s median=%.4f %s" % (
            m, statistics.median(vals),
            "p%.0f=%.4f" % tail if tail else "tail=n/a(n<11)"))
    return "  ".join(parts)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qvir" / "cli.py").is_file():
        print("error: no qvir sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    orders = workloads.orders_for(workload, args.seed)
    try:
        units = metric_units()
        reference = load_reference(workload.name)
        run = collect(workload, orders, args.seconds, bool(args.trace), reference,
                      args.seed)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    untraced = run["samples"][False]
    failed = len(run["problems"])
    for problem in run["problems"]:
        print("FAIL " + problem, file=sys.stderr)
    print(summary_line(workload, orders, untraced, run["setups"], run["attempted"], failed))
    if args.trace:
        values = layer_metrics(untraced, run["samples"][True])
    else:
        values = end_to_end_metrics(untraced, run["setups"])
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
