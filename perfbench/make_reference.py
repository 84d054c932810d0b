"""Capture the reference outputs the benchmark's correctness gate compares to.

    python3 perfbench/make_reference.py

Runs every subcommand of each workload at every order its seed window can
reach, and at orders 1, 2 and 3 for the smoke test, twice under different
hash seeds; the two captures must agree.  Writes perfbench/reference/<name>.json.
Run it only at a commit whose outputs are known to be right: the gate then
holds every later commit to them.
"""

from __future__ import annotations

import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

SMOKE_ORDERS = (1, 2, 3)


def smoke_orders(workload, k: int) -> dict:
    return {key: k for key in workload.orders}


def reference_jobs(workload) -> dict:
    """reference key -> [command, orders] over all window values and smoke orders."""
    values = workloads.window_orders(workload)
    jobs = {}
    for command in workload.commands:
        reads = workloads.READS[command]
        for combo in itertools.product(*(values[k] for k in reads)):
            orders = dict(workload.orders, **dict(zip(reads, combo)))
            jobs[workloads.reference_key(command, orders)] = [command, orders]
        for k in SMOKE_ORDERS:
            orders = smoke_orders(workload, k)
            jobs[workloads.reference_key(command, orders)] = [command, orders]
    return jobs


def capture(workload) -> dict:
    jobs = reference_jobs(workload)
    spec = {"jobs": list(jobs.values()), "orders": {}, "via_main": False,
            "trace": False, "run_id": "reference"}
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda h: run.run_worker(spec, h, timeout=3000)[0]["outputs"],
                                (0, 1)))
    if results[0] != results[1]:
        raise run.BenchError("%s: outputs depend on the hash seed" % workload.name)
    out = {}
    for key, got in zip(jobs, results[0]):
        if "error" in got or not got["passed"]:
            raise run.BenchError("%s: %s does not pass: %s" % (workload.name, key, got))
        out[key] = got
    return out


def main() -> int:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in sorted(workloads.WORKLOADS.items()):
        ref = capture(workload)
        path = run.REFERENCE_DIR / ("%s.json" % name)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print("%s: %d reference outputs -> %s" % (name, len(ref), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
