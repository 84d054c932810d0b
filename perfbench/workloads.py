"""The benchmark's workloads: which qvir subcommands run, and at which orders.

A workload is a list of subcommands that share one cold interpreter, as
``qvir all`` does.  Seed 0 gives the listed orders; any other seed shifts
each order inside its window, so that a claim can be re-checked on inputs
nobody tuned for.  Only orders whose one-step change moves the workload's
time by a few percent at most have a window; the steep ones (families,
the hilbert and virasoro slices, prop51) stay fixed, so that the seed does
not swamp the run-to-run spread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the RunConfig orders each subcommand reads; the reference outputs are keyed
# by these
READS = {
    "characters-equal": ("trunc_qseries",),
    "nahm-e8": ("trunc_e8",),
    "modules-identities": ("trunc_modules",),
    "partitions-count": ("trunc_qseries",),
    "recursion": ("trunc_tq",),
    "functional-eqs": ("trunc_tq",),
    "families": ("trunc_tq",),
    "recurrence-s": ("trunc_tq",),
    "hilbert": ("trunc_hilbert",),
    "prop51": ("prop51_kmax", "deriv_kmax"),
    "groebner": ("trunc_groebner",),
    "singular-vector": ("trunc_virasoro",),
    "lemma-b": (),
    "nahm-alpha": (),
}

ALL_COMMANDS = tuple(READS)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    orders: dict
    windows: dict
    via_main: bool = False  # run as `qvir all --format json --out DIR`


WORKLOADS = {w.name: w for w in (
    Workload(
        "battery-half",
        ALL_COMMANDS,
        {"trunc_qseries": 30, "trunc_modules": 25, "trunc_tq": 20, "trunc_hilbert": 15,
         "trunc_groebner": 11, "trunc_virasoro": 8, "trunc_e8": 6, "prop51_kmax": 3,
         "deriv_kmax": 2},
        {"trunc_qseries": (-1, 0, 1), "trunc_modules": (-1, 0, 1),
         "trunc_hilbert": (-1, 0, 1), "trunc_groebner": (-1, 0, 1),
         "trunc_virasoro": (-1, 0, 1), "trunc_e8": (-1, 0, 1)},
        via_main=True),
    Workload(
        "elimination",
        ("hilbert", "groebner", "prop51", "singular-vector", "lemma-b"),
        {"trunc_hilbert": 30, "trunc_groebner": 22, "prop51_kmax": 3, "deriv_kmax": 3,
         "trunc_virasoro": 15},
        {"trunc_groebner": (-1, 0, 1)}),
)}


def orders_for(workload: Workload, seed: int) -> dict:
    """The orders a run uses: the listed ones at seed 0, shifted otherwise."""
    orders = dict(workload.orders)
    if seed == 0:
        return orders
    rng = random.Random(seed)
    for key in sorted(workload.windows):
        orders[key] += rng.choice(workload.windows[key])
    return orders


def window_orders(workload: Workload) -> dict:
    """Every value each order can take over all seeds."""
    return {key: sorted({v + s for s in workload.windows.get(key, (0,))})
            for key, v in workload.orders.items()}


def reference_key(command: str, orders: dict) -> str:
    """Key of one subcommand's reference output: its name and the orders it reads."""
    return command + "|" + ",".join("%s=%d" % (k, orders[k]) for k in READS[command])
