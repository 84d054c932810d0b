"""The benchmark's stored reference outputs, reproduced by run_check.

Each key of ``perfbench/reference/<workload>.json`` names a subcommand and
the orders it reads; every other RunConfig field keeps its default.  So the
outputs matching shows both that the reports are unchanged and that a report
depends only on the orders its key lists, which is what the keys assume.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from qvir.cli import COMMANDS, INT_FIELDS, RunConfig, run_check

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
import workloads  # noqa: E402

REFERENCES = {name: json.loads((BENCH_DIR / "reference" / ("%s.json" % name)).read_text())
              for name in ("battery-half", "elimination")}


def _orders(key: str) -> dict:
    assignments = key.split("|", 1)[1]
    return {k: int(v) for k, v in (a.split("=") for a in assignments.split(",") if a)}


@pytest.mark.parametrize("workload", sorted(REFERENCES))
def test_run_check_reproduces_every_reference_output(workload):
    reference = REFERENCES[workload]
    assert reference
    for key, want in reference.items():
        command = key.split("|", 1)[0]
        got = worker.normalize(run_check(command, RunConfig(**_orders(key))))
        assert got == want, key


def test_each_command_reads_the_orders_its_reference_key_names():
    assert list(COMMANDS) == list(workloads.READS)
    for command, (reads, _) in COMMANDS.items():
        assert tuple(f for f in reads if f in INT_FIELDS) == workloads.READS[command]
