"""One cold sample: a fresh interpreter runs one workload and reports on stdout.

Invoked by run.py as ``python3 perfbench/worker.py SPEC_JSON`` with qvir's
sources on PYTHONPATH.  The spec names the subcommands, the orders, whether
to go through ``qvir.cli.main`` (``qvir all``), and whether to trace.  The
last stdout line is a JSON object with the timings, the resource use and
each subcommand's normalized output.
"""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

# spans.Recorder.install wraps only modules already imported, so a traced
# sample imports every layer up front; an untraced one imports qvir.cli alone,
# as the `qvir` entry point does, and the checks import the rest lazily
TRACED_MODULES = ("qvir.qseries", "qvir.characters", "qvir.partitions",
                  "qvir.polyfamilies", "qvir.diffalg", "qvir.virasoro", "qvir.nahm")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def normalize(report: dict) -> dict:
    """The mathematical output of one report: verdicts, verified orders and
    a digest of the data tables, after the JSON round trip the CLI applies."""
    import hashlib  # loads OpenSSL: imported after peak RSS is read, not before
    report = json.loads(json.dumps(report, sort_keys=True))
    checks = report.get("checks", [])
    data = json.dumps([c.get("data") for c in checks], sort_keys=True)
    return {"passed": bool(report.get("passed")),
            "checks": [[c.get("name"), bool(c.get("passed")), c.get("verified_order")]
                       for c in checks],
            "data_sha256": hashlib.sha256(data.encode()).hexdigest()}


def _run_via_main(cli, spec) -> str | None:
    """`qvir all` into spec's out_dir; the error text if it raised."""
    out_dir = Path(spec["out_dir"])
    try:
        cli.main(["all", "--config", str(out_dir / "orders.cfg"), "--format", "json",
                  "--out", str(out_dir / "reports")])
    except Exception as exc:  # the reports never written count as failures
        return "%s: %s" % (type(exc).__name__, exc)
    return None


def _main_reports(spec, error) -> list:
    reports = Path(spec["out_dir"]) / "reports"
    out = []
    for command, _ in spec["jobs"]:
        path = reports / ("%s.json" % command)
        if path.exists():
            out.append(normalize(json.loads(path.read_text())["reports"][0]))
        else:
            out.append({"error": error or "no report written"})
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    cli = importlib.import_module("qvir.cli")
    if spec.get("probe"):  # set-up only: the time a check call would start
        sys.stdout.write(json.dumps({"t_first": time.perf_counter()}) + "\n")
        return 0

    if spec["via_main"]:
        out_dir = Path(spec["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "orders.cfg").write_text(
            "".join("%s = %d\n" % kv for kv in spec["orders"].items()))

    outputs: list = []
    error = None
    t_first = time.perf_counter()
    cpu0 = _cpu_s()
    recorder = None
    if spec["trace"]:  # timed: importing every layer up front is part of tracing's cost
        import spans
        import workloads
        for name in TRACED_MODULES:
            importlib.import_module(name)
        recorder = spans.Recorder(time.perf_counter, spec["run_id"])
        recorder.install()
    if spec["via_main"]:
        error = _run_via_main(cli, spec)
    else:
        for command, orders in spec["jobs"]:
            cfg = replace(cli.RunConfig(), jobs=1, **orders)
            try:
                outputs.append(cli.run_check(command, cfg))
            except Exception as exc:  # a failed subcommand must not abort the run
                outputs.append({"error": "%s: %s" % (type(exc).__name__, exc)})
    t_end = time.perf_counter()
    cpu = _cpu_s() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if spec["via_main"]:
        outputs = _main_reports(spec, error)
        shutil.rmtree(spec["out_dir"], ignore_errors=True)
    else:
        outputs = [r if "error" in r else normalize(r) for r in outputs]
    result = {"t_first": t_first, "wall_s": t_end - t_first, "cpu_s": cpu,
              "peak_rss_mb": rss_mb, "outputs": outputs}
    if recorder is not None:
        result["layers"] = recorder.layer_metrics(workloads.ALL_COMMANDS)
        result["missing_entry_points"] = recorder.missing
        if spec.get("spans_out"):
            recorder.write(spec["spans_out"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
