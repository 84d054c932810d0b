"""Same-code comparison: two interleaved sets of benchmark runs of one commit.

    python3 perfbench/compare.py [--runs N] [--record PATH]

For every workload in BENCHMARK.json, runs run.py 2N times for run_seconds
each, alternating set A and set B (ABBA order), each run with its own seed:
set A takes seeds 1..N and set B N+1..2N.  Prints each end-to-end metric's
median and quartiles per set, its spread (quartile distance over median),
and whether the two sets agree within the bounds in BENCHMARK.json: each
spread within the bound, and neither median worse than the other by more
than the bound.
With --record, also runs one traced run per workload and writes everything,
with the machine it ran on, to PATH as JSON.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                                  proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def judge(a: list, b: list, metric: dict) -> dict:
    """Agreement of two sets of one metric under its bound."""
    bound = metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    worse = max(sign * (mb - ma) / ma, sign * (ma - mb) / mb)
    spreads = (spread(a), spread(b))
    ok = worse <= bound and max(spreads) <= bound
    return {"A": quartiles(a), "B": quartiles(b), "spread": spreads,
            "spread_all": spread(a + b), "worse": worse, "bound": bound, "agree": ok}


def machine() -> dict:
    import mpmath
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "mpmath": mpmath.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--record", default=None, help="write the results as JSON here")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record = {"machine": machine(), "runs_per_set": args.runs, "seconds": seconds,
              "workloads": {}}
    all_agree = True
    for name in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        attempted = failed = 0
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = 1 + i + (args.runs if s == "B" else 0)
                out = bench_run(name, seed, seconds, 0)
                attempted += out["attempted"]
                failed += out["failed"]
                sets[s].append({m: v["value"] for m, v in out["metrics"].items()})
        print("%s: %d runs per set, %d s each, fail_share %.4f (%d of %d)"
              % (name, args.runs, seconds, failed / attempted, failed, attempted))
        rows = {}
        for metric in bench["end_to_end"]:
            m = metric["name"]
            r = judge([x[m] for x in sets["A"]], [x[m] for x in sets["B"]], metric)
            rows[m] = r
            all_agree = all_agree and r["agree"]
            print("  %-12s A %.4f [%.4f, %.4f]  B %.4f [%.4f, %.4f]  spread %.3f/%.3f "
                  "(all %.3f)  worse %.3f  bound %.2f  %s"
                  % ((m,) + tuple(r["A"][i] for i in (1, 0, 2))
                     + tuple(r["B"][i] for i in (1, 0, 2))
                     + r["spread"] + (r["spread_all"], r["worse"], r["bound"],
                                      "agree" if r["agree"] else "DISAGREE")))
        all_agree = all_agree and failed == 0
        entry = {"fail_share": failed / attempted, "metrics": rows, "runs": sets}
        if args.record:
            traced = bench_run(name, 0, seconds, 1)
            entry["traced_seed0"] = {m: v["value"] for m, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("sets agree within bounds" if all_agree else "sets DO NOT agree within bounds")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
