import contextlib
import importlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import qvir
from qvir.cli import (CACHES, COMMANDS, INT_FIELDS, ConfigError, RunConfig,
                      load_config_file, main, render, run_all, run_check)

GOLDEN = Path(__file__).parent / "golden"
# the child interpreter imports the qvir this process imports, also when it
# comes from the checkout's src/ through pytest's pythonpath setting
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    str(Path(qvir.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")))))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "qvir.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_subcommand_exit_zero():
    code, out, _ = run_cli("characters-equal", "--trunc", "10")
    assert code == 0
    assert "PASS" in out and "mod q^10" in out


def test_json_format_schema():
    code, out, _ = run_cli("nahm-alpha", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["reports"][0]["command"] == "nahm-alpha"
    assert all("passed" in c for c in doc["reports"][0]["checks"])


def test_csv_format():
    code, out, _ = run_cli("lemma-b", "--format", "csv")
    assert code == 0
    head = out.splitlines()[0]
    assert head == "command,check,passed,verified_order,first_failure"


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("characters-equal", "--trunc", "8",
                           "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["reports"][0]["passed"]


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("truncc_qseries = 10\n")
    code, _, err = run_cli("characters-equal", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_a_key_set_twice_exits_2_naming_both_lines(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("trunc_tq = 5\nformat = json\n\ntrunc_tq = 6\n")
    code, out, err = run_cli("recursion", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "'trunc_tq' is set twice, at lines 1 and 4" in err


def test_jobs_above_the_subcommand_count_exits_2(monkeypatch, capsys):
    # rejected before run_all, so no worker process is started
    monkeypatch.setattr("qvir.cli.run_all", lambda cfg: pytest.fail("run_all was called"))
    for jobs in (len(COMMANDS) + 1, 500):
        assert main(["all", "--jobs", str(jobs), "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "jobs must be at most %d" % len(COMMANDS) in err
    RunConfig(jobs=len(COMMANDS)).validate()


def test_missing_config_file_exits_2(tmp_path):
    code, _, err = run_cli("characters-equal", "--config",
                           str(tmp_path / "absent.cfg"))
    assert code == 2
    assert "configuration error" in err


def test_trunc_rejected_for_all():
    code, _, err = run_cli("all", "--trunc", "10")
    assert code == 2


@pytest.mark.parametrize("command", ["lemma-b", "nahm-alpha"])
def test_trunc_rejected_where_no_order_is_read(command, capsys):
    assert main([command, "--trunc", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "%s reads no truncation order" % command in err


@pytest.mark.parametrize("argv,rejected", [
    (["hilbert", "--jobs", "2"], "--jobs"),
    (["families", "--jobs", "1"], "--jobs"),
    (["characters-equal", "--gens", "a"], "--gens"),
    (["prop51", "--gens", "ab"], "--gens"),
    (["lemma-b", "--gens", "b", "--jobs", "2"], "--jobs"),
])
def test_flags_that_change_nothing_exit_2(argv, rejected, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "%s applies to" % rejected in err


def test_a_check_receives_the_fields_its_row_reads_and_trunc_sets_the_first(monkeypatch):
    got = []
    monkeypatch.setitem(COMMANDS, "hilbert", (("trunc_hilbert", "gens", "deriv_kmax"),
                                              lambda *args: got.append(args) or []))
    assert main(["hilbert", "--trunc", "7", "--gens", "b", "--format", "json"]) == 0
    assert got == [(7, "b", RunConfig().deriv_kmax)]


def test_a_raising_check_becomes_a_failed_entry(monkeypatch, capsys):
    from qvir.polyfamilies import StabilizationNotReached

    def raising(n):
        raise StabilizationNotReached("sector 'vac' not stable below q^9 at n=2")

    monkeypatch.setitem(COMMANDS, "families", (("trunc_tq",), raising))
    rep = run_check("families", RunConfig())
    assert rep["passed"] is False
    [entry] = rep["checks"]
    assert not entry["passed"]
    assert entry["first_failure"] == \
        "StabilizationNotReached: sector 'vac' not stable below q^9 at n=2"
    assert entry["detail"].startswith("raised in raising (test_cli.py:")

    calls = []
    for name in COMMANDS:
        if name != "families":
            monkeypatch.setitem(COMMANDS, name, ((), lambda name=name: calls.append(name) or []))
    reports = run_all(RunConfig())
    assert len(reports) == 15 and len(calls) == 13
    assert [c["passed"] for c in reports[-1]["checks"]] == \
        [name != "families" for name in COMMANDS]
    assert main(["all"]) == 1
    assert "StabilizationNotReached" in capsys.readouterr().out


def test_functional_eqs_reports_a_failed_bigrade(monkeypatch):
    from qvir import characters as ch

    real = ch.P_of_t_q

    def P_with_a_short_cell(n):
        # t q: one part of weight 1, whose bigraded t-exponent 1 - 2 is negative
        return {**real(n), (1, 1): 1}

    monkeypatch.setattr(ch, "P_of_t_q", P_with_a_short_cell)
    rep = run_check("functional-eqs", RunConfig(trunc_tq=6))
    entries = {c["name"]: c for c in rep["checks"]}
    for name in ("bigraded substitution: t-exponents nonnegative",
                 "bigraded character at t=1"):
        assert not entries[name]["passed"]
        assert entries[name]["first_failure"] == "negative t-exponent -1 at t^1 q^1"
    assert not rep["passed"]
    assert entries["P == A+B+C+D+E"]["first_failure"] == \
        json.dumps({"t_degree": 1, "q_exponent": "1"})
    assert [c["name"] for c in rep["checks"] if not c["passed"]] == [
        "P == A+B+C+D+E", "bigraded substitution: t-exponents nonnegative",
        "bigraded character at t=1"]


def test_functional_eqs_t1_entry_catches_a_wrong_P(monkeypatch):
    from qvir import characters as ch

    real = ch.P_of_t_q

    def wrong_P(n):
        P = real(n)
        return {**P, (5, 1): P.get((5, 1), 0) + 1}

    monkeypatch.setattr(ch, "P_of_t_q", wrong_P)
    rep = run_check("functional-eqs", RunConfig(trunc_tq=8))
    entries = {c["name"]: c for c in rep["checks"]}
    assert entries["bigraded substitution: t-exponents nonnegative"]["passed"]
    assert not entries["bigraded character at t=1"]["passed"]
    assert entries["bigraded character at t=1"]["first_failure"] == "5"
    assert entries["P == A+B+C+D+E"]["first_failure"] == \
        json.dumps({"t_degree": 1, "q_exponent": "5"})


def test_recursion_reports_a_miscounted_cell(monkeypatch):
    from qvir import partitions as pt

    real = pt.count_table
    good = real(20)
    e, p, d = good["E"][(8, 3)], good["P"][(8, 3)], good["D"].get((15, 4), 0)

    def miscounted(n):
        table = real(n)
        table["E"][(8, 3)] += 1
        return table

    monkeypatch.setattr(pt, "count_table", miscounted)
    rep = pt.recursion_check(20)
    # the cell fails E's equation and the P total there, and D's equation
    # where D's E-row reads it: n = 8 + 1 + 2*3, m = 3 + 1
    assert rep["failures"] == [
        {"class": "E", "n": 8, "m": 3, "actual": e + 1, "expected": e},
        {"class": "P", "n": 8, "m": 3, "actual": p, "expected": p + 1},
        {"class": "D", "n": 15, "m": 4, "actual": d, "expected": d - 1}]
    assert rep["failure_count"] == 3 and not rep["passed"]
    entry = run_check("recursion", RunConfig(trunc_tq=20))
    assert not entry["passed"]
    assert json.loads(entry["checks"][0]["first_failure"]) == rep["failures"][0]
    assert run_check("functional-eqs", RunConfig(trunc_tq=20))["passed"]


def _equation_entries(rep):
    """Class (or "P") -> whether its equation passed, from a functional-eqs report."""
    from qvir.partitions import CLASS_EQUATIONS
    entries = {c["name"]: c["passed"] for c in rep["checks"]}
    return {w: entries["P == A+B+C+D+E" if w == "P" else "functional equation %s" % w]
            for w in CLASS_EQUATIONS}


def test_a_wrong_table_row_fails_both_checks(monkeypatch):
    from qvir import partitions as pt

    # D's E-row with q^2 in place of q^1
    monkeypatch.setitem(pt.CLASS_EQUATIONS, "D", (("B", 1, 1, 1, 1), ("E", 2, 1, 2, -1)))
    rep = pt.recursion_check(20)
    assert not rep["passed"] and {f["class"] for f in rep["failures"]} == {"D"}
    equations = _equation_entries(run_check("functional-eqs", RunConfig(trunc_tq=20)))
    assert [w for w, passed in equations.items() if not passed] == ["D"]


def test_a_wrong_closed_form_fails_only_the_equations_reading_it(monkeypatch):
    from qvir import characters as ch
    from qvir.partitions import CLASS_EQUATIONS

    real = ch.class_closed_form

    def extra_C(which, trunc):
        f = real(which, trunc)
        if which != "C":
            return f
        return {**f, (6, 2): f.get((6, 2), 0) + 1}

    monkeypatch.setattr(ch, "class_closed_form", extra_C)
    assert run_check("recursion", RunConfig(trunc_tq=20))["passed"]
    rep = run_check("functional-eqs", RunConfig(trunc_tq=20))
    readers = {w for w, rows in CLASS_EQUATIONS.items()
               if w == "C" or any(row[0] == "C" for row in rows)}
    assert readers == {"A", "C", "E", "P"}
    equations = _equation_entries(rep)
    assert {w for w, passed in equations.items() if not passed} == readers
    # the initial conditions and the two bigrade entries read no class sum
    assert sum(not c["passed"] for c in rep["checks"]) == len(readers)


@pytest.mark.parametrize("cls,failing", [
    # A's t^0 term must be 1 alone; A's own equation holds at t^0 whatever
    # F_A(0) is, so only B (through its A-row) and the P total see q^3
    ("A", {"B": (1, "5"), "P": (0, "3")}),
    # B has no t^0 term; A, C and D read B, and B's rows all raise the t-degree
    ("B", {"A": (0, "3"), "B": (0, "3"), "C": (1, "4"), "D": (1, "4"), "P": (0, "3")}),
])
def test_a_t0_term_fails_the_initial_conditions(monkeypatch, cls, failing):
    from qvir import characters as ch

    real = ch.class_closed_form

    def extra_t0(which, trunc):
        f = real(which, trunc)
        return {**f, (3, 0): f.get((3, 0), 0) + 1} if which == cls else f

    monkeypatch.setattr(ch, "class_closed_form", extra_t0)
    inits = ch.functional_equation_check(20)["initial_conditions"]
    assert {w for w, ok in inits.items() if not ok} == {cls}
    rep = run_check("functional-eqs", RunConfig(trunc_tq=20))
    entries = {c["name"]: c for c in rep["checks"]}
    assert not entries["initial conditions"]["passed"]
    equations = _equation_entries(rep)
    assert {w for w, passed in equations.items() if not passed} == set(failing)
    for w, (m, q) in failing.items():
        name = "P == A+B+C+D+E" if w == "P" else "functional equation %s" % w
        assert json.loads(entries[name]["first_failure"]) == {"t_degree": m, "q_exponent": q}
    assert sum(not c["passed"] for c in rep["checks"]) == len(failing) + 1


def test_families_sample_entry_catches_a_wrong_T8(monkeypatch):
    from qvir import polyfamilies as pf
    from qvir.qseries import QSeries

    real = pf.family_poly

    def wrong_T8(sector, side, n, trunc=None):
        poly = real(sector, side, n, trunc)
        if (sector, side, n) != ("vac", "T", 8):
            return poly
        return QSeries({**poly.coeffs, 3: poly.coeffs.get(3, 0) + 1}, poly.trunc)

    monkeypatch.setattr(pf, "family_poly", wrong_T8)
    rep = run_check("families", RunConfig(trunc_tq=8))
    entries = {c["name"]: c for c in rep["checks"]}
    assert not entries["sample polynomials"]["passed"]
    assert not rep["passed"]


def test_recurrence_s_order_above_30_changes_the_report():
    reports = {}
    for n in (30, 31):
        code, out, err = run_cli("recurrence-s", "--trunc", str(n), "--format", "json")
        assert code == 0, err
        rep = json.loads(out)["reports"][0]
        rep.pop("elapsed_s")
        reports[n] = rep
    assert reports[31]["checks"][0]["name"] == \
        "eight-term recurrence, both families, n <= 31"
    assert reports[31]["passed"] and reports[31] != reports[30]


def test_recurrence_s_builds_each_residual_once(monkeypatch):
    # the table reads the residuals that recurrence_check_S computed; it is
    # the table the report always had, each residual built from the families
    from qvir import polyfamilies as pf
    real = pf.recurrence_residual
    built = []

    def spy(values, n, width):
        built.append(n)
        return real(values, n, width)

    monkeypatch.setattr(pf, "recurrence_residual", spy)
    for n in (3, 8):
        built.clear()
        rep = run_check("recurrence-s", RunConfig(trunc_tq=n))
        assert rep["passed"]
        assert sorted(built) == sorted(m for side in pf.SIDES for m in range(n + 1))
        want = [["side", "n", "residual"]]
        for side in pf.SIDES:
            for m in range(min(n, 6) + 1):
                want.append([side, m, "0"])
        assert rep["checks"][0]["data"] == {"residuals": want}


def test_recurrence_s_renders_a_failing_residual(monkeypatch):
    # an extra term q^2 in S_5 (a term with no q-binomial is q^e alone)
    # enters the residuals at n = 0, 1 and 2 through the rows j = 5, 4 and 3
    from qvir import polyfamilies as pf
    real = pf._terms

    def bent(sector, side, n, slots=None):
        out = real(sector, side, n, slots)
        return out + [(2, 1, ())] if (sector, side, n) == ("vac", "S", 5) else out

    monkeypatch.setattr(pf, "_terms", bent)
    rep = run_check("recurrence-s", RunConfig(trunc_tq=3))
    check = rep["checks"][0]
    assert not rep["passed"] and not check["passed"]
    assert check["data"]["residuals"][1:5] == [
        ["S", 0, "QSeries(-1*q^5)"], ["S", 1, "QSeries(-1*q^15 + -1*q^16)"],
        ["S", 2, "QSeries(1*q^17 + 1*q^18)"], ["S", 3, "0"]]
    assert all(row[2] == "0" for row in check["data"]["residuals"][5:])
    assert json.loads(check["first_failure"]) == [
        {"side": "S", "n": 0, "exponent": "5", "coefficient": "-1"}]


def test_v_half_failure_is_reported_in_q_units(monkeypatch):
    # doubling the bracket's second entry first changes the sum at its
    # lowest term, q^(1/2) q^6 at k = (0, 0)
    from qvir import characters as ch
    bracket, linear, offset = ch._MODULE_SUMS["V_half"]
    monkeypatch.setitem(ch._MODULE_SUMS, "V_half",
                        ([bracket[0], (bracket[1][0], -2)], linear, offset))
    entries = {c["name"]: c for c in run_check(
        "modules-identities", RunConfig(trunc_modules=10))["checks"]}
    half = entries["V_half: classical == quasiparticle"]
    assert not half["passed"]
    assert (half["verified_order"], half["first_failure"]) == ("10", "13/2")
    assert entries["V0: classical == quasiparticle"]["passed"]


@pytest.mark.parametrize("order", [-1, 0])
def test_no_pass_without_a_comparison(monkeypatch, order):
    # run_check refuses an order below 1, and past that refusal an identity
    # whose common order is below 1 fails, as nothing was compared
    cfg = RunConfig(trunc_qseries=order)
    with pytest.raises(ConfigError):
        run_check("characters-equal", cfg)
    monkeypatch.setattr(RunConfig, "validate", lambda self: self)
    rep = run_check("characters-equal", cfg)
    assert not rep["passed"] and rep["checks"]
    for c in rep["checks"]:
        assert not c["passed"] and c["detail"] == "common order below 1", c


def test_nahm_alpha_evaluates_each_dilogarithm_once(monkeypatch):
    # L(k/10) for k = 1..9 once each, read twice by the reflection pairs;
    # the two solves add one call per fixed-point entry (2 + 8)
    from qvir import nahm
    real = nahm.rogers_dilog
    args = []

    def spy(z):
        args.append(z)
        return real(z)

    monkeypatch.setattr(nahm, "rogers_dilog", spy)
    rep = run_check("nahm-alpha", RunConfig())
    assert rep["passed"]
    assert len(args) == 19
    tenths = [z for z in args if z * 10 == int(z * 10)]
    assert tenths == [Decimal(k) / 10 for k in range(1, 10)]


def test_nahm_alpha_reflection_entry_sums_every_tenth_by_the_series(monkeypatch):
    # L(z) + L(1 - z) == pi^2/6 compares two series evaluations only if no
    # tenth takes the reflection branch, which would satisfy it by construction
    from qvir import nahm
    real = nahm._dilog_series
    args = []

    def spy(z):
        args.append(z)
        return real(z)

    monkeypatch.setattr(nahm, "_dilog_series", spy)
    rep = run_check("nahm-alpha", RunConfig())
    assert rep["passed"]
    assert args[:9] == [Decimal(k) / 10 for k in range(1, 10)]
    # the E8 entries above 9/10 do reflect: the series sees 1 - z < 1/10
    assert len(args) == 19 and sum(z < Decimal("0.1") for z in args[9:]) == 7


def test_the_battery_never_imports_mpmath(tmp_path):
    # mpmath is a test-only reference; qvir itself runs on the standard library
    cfg = tmp_path / "ones.cfg"
    cfg.write_text("".join("%s = 1\n" % f for f in INT_FIELDS if f != "jobs"))
    code = ("import sys\nfrom qvir.cli import main\n"
            "code = main(['all', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, 'mpmath' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# reduced orders\ntrunc_qseries = 12\nformat = json\n")
    overrides = load_config_file(str(cfg))
    assert overrides == {"trunc_qseries": 12, "format": "json"}


def test_config_validation():
    # every int field, jobs included, must be a positive int, and a bool is not one
    for bad in ({"trunc_qseries": 0}, {"jobs": 0}, {"jobs": "2"}, {"deriv_kmax": 1.5},
                {"format": "xml"}, {"gens": "c"}, {"trunc_qseries": True}):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    RunConfig().validate()


def test_all_reduced_orders(tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("\n".join([
        "trunc_qseries = 16", "trunc_modules = 12", "trunc_tq = 10",
        "trunc_hilbert = 12", "trunc_groebner = 10", "trunc_virasoro = 8",
        "trunc_e8 = 8", "prop51_kmax = 1", "deriv_kmax = 1",
        "format = json"]) + "\n")
    out_dir = tmp_path / "reports"
    code, _, err = run_cli("all", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0, err
    files = sorted(p.name for p in out_dir.iterdir())
    assert len(files) == 15
    assert "summary.json" in files
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["reports"][0]["passed"]


def test_reports_deterministic():
    cfg = RunConfig(trunc_qseries=10, format="json")
    a = run_check("characters-equal", cfg)
    b = run_check("characters-equal", cfg)
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


TINY = RunConfig(trunc_qseries=10, trunc_modules=8, trunc_tq=8,
                 trunc_hilbert=10, trunc_groebner=9, trunc_virasoro=7,
                 trunc_e8=6, prop51_kmax=1, deriv_kmax=1)


def test_every_registered_check_runs_quickly_at_tiny_orders():
    for name in COMMANDS:
        rep = run_check(name, TINY)
        assert rep["passed"], (name, render([rep], TINY))


def filled_caches():
    """(module, name) of every cache in cli.CACHES that holds an entry."""
    out = []
    for module, names in CACHES.items():
        for name in names:
            c = getattr(importlib.import_module(module), name)
            if c.cache_info().currsize if hasattr(c, "cache_info") else c:
                out.append((module, name))
    return out


@pytest.mark.parametrize("name", COMMANDS)
def test_a_check_leaves_every_cache_empty(name):
    run_check(name, RunConfig(**{f: 2 for f in INT_FIELDS if f != "jobs"}))
    assert filled_caches() == []


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_raising_check_leaves_every_cache_empty(monkeypatch, error):
    from qvir.partitions import partitions_min2

    def raising():
        partitions_min2(6)
        raise error("stop")

    monkeypatch.setitem(COMMANDS, "lemma-b", ((), raising))
    with contextlib.suppress(KeyboardInterrupt):
        assert not run_check("lemma-b", RunConfig())["passed"]
    assert filled_caches() == []


def test_the_cache_probe_sees_a_filled_cache():
    from qvir import diffalg, partitions, virasoro
    diffalg.hilbert_quotient((diffalg.GEN_A,), 8)
    partitions.partitions_min2(6)
    virasoro.apply_mode(-2, virasoro.VirVector(Fraction(1, 2), {(): 1}))
    assert filled_caches() == [("qvir.diffalg", "_BLOCK_CACHE"), ("qvir.diffalg", "_DD_CACHE"),
                               ("qvir.partitions", "partitions_min2"),
                               ("qvir.partitions", "partitions_min2_length"),
                               ("qvir.virasoro", "_apply_one")]


def test_a_report_after_all_equals_the_report_run_alone():
    # no check reads what an earlier one left behind
    after_all = run_all(TINY)[:-1]
    alone = [run_check(name, TINY) for name in reversed(COMMANDS)][::-1]
    for r in after_all + alone:
        del r["elapsed_s"]
    assert after_all == alone


def test_parallel_jobs(tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("\n".join([
        "trunc_qseries = 12", "trunc_modules = 8", "trunc_tq = 8",
        "trunc_hilbert = 10", "trunc_groebner = 8", "trunc_virasoro = 7",
        "trunc_e8 = 6", "prop51_kmax = 1", "deriv_kmax = 1"]) + "\n")
    code, out, err = run_cli("all", "--config", str(cfg), "--jobs", "4")
    assert code == 0, err
    assert "summary" in out


# -- golden serialization fixtures -------------------------------------------

def load_golden(name):
    return json.loads((GOLDEN / name).read_text())


# run_all rendered as JSON with every elapsed_s removed, at the default orders
# and with every order at 1, 2 and 3; reports.json holds stored_report(key)
# per key, captured before the two-variable series became tables
STORED_REPORTS = ("default", "1", "2", "3")


def stored_report(key):
    orders = {} if key == "default" else {f: int(key) for f in INT_FIELDS if f != "jobs"}
    cfg = RunConfig(format="json", **orders)
    doc = json.loads(render(run_all(cfg), cfg))
    for r in doc["reports"]:
        del r["elapsed_s"]
    return doc


@pytest.mark.parametrize("key", STORED_REPORTS)
def test_run_all_reproduces_the_stored_reports(key):
    want = load_golden("reports.json")[key]
    assert json.dumps(stored_report(key), sort_keys=True) == json.dumps(want, sort_keys=True)


def test_golden_pochhammer():
    # (q)_3 as one q_product, read as the exact polynomial it is
    from qvir.qseries import QSeries, q_product
    poch3 = QSeries(q_product(7, ((j, -1, 1) for j in (1, 2, 3))).coeffs)
    assert poch3.to_json_dict() == load_golden("poch3.json")


def test_golden_vacuum_character():
    from qvir.characters import MinimalModelLabel, feigin_fuchs_character
    got = feigin_fuchs_character(MinimalModelLabel(3, 4), 12).to_json_dict()
    assert got == load_golden("vacuum_character_12.json")


def test_golden_half_module():
    from qvir.characters import module_character
    got = module_character("V_half", "New", 8).to_json_dict()
    assert got == load_golden("v_half_new_8.json")


def test_golden_two_variable(tq_json):
    from qvir.characters import P_of_t_q
    assert tq_json(P_of_t_q(10), 10) == load_golden("p_tq_10.json")


def test_golden_diffpoly():
    from qvir.diffalg import GEN_B, build_element
    assert GEN_B.to_json_dict() == load_golden("degree9_generator.json")
    assert build_element("r", 1).to_json_dict() == load_golden("element_r1.json")


def test_golden_ideal_slice_rows(reduced_slice):
    from qvir.diffalg import GEN_A, GEN_B, groebner_check
    golden = load_golden("ideal_slice_rows.json")
    assert sorted(golden, key=int) == [str(d) for d in range(19)]
    slice_pivots = groebner_check(18)["slice_pivots"]
    for d, rows in golden.items():
        assert [r.to_json_dict() for r in reduced_slice((GEN_A, GEN_B), int(d))] == rows, d
        # groebner reads the pivots off the integer blocks: they are the
        # golden rows' leading monomials, in order
        assert [list(m) for m in slice_pivots[int(d)]] == \
            [r["terms"][0][0] for r in rows], d


# every quasiparticle sum, single sum and truncated product, pinned with its
# exact truncation and exponent denominator; the fixture holds
# to_json_dict() per name and order, and tq_json for the two-variable tables
QUASIPARTICLE_SUM_ORDERS = (1, 2, 3, 20)


def quasiparticle_sums():
    from qvir import characters as ch
    from qvir.partitions import CLASSES
    from qvir.polyfamilies import SECTORS, limit_series
    from qvir.qseries import QSeries, q_product
    half = Fraction(1, 2)

    def v_half_sum_form(n):
        # q^(1/2) sum_k q^(2k^2+2k)/(q)_(2k+1): the half sector's S limit at
        # the offset 1/2
        return QSeries(limit_series("half", n).coeffs, n, half)

    sums = {"quasiparticle_chi": ch.quasiparticle_chi, "P_of_t_q": ch.P_of_t_q,
            "v_half_sum_form": v_half_sum_form,
            # sum_k q^(k(k+1)/2)/(q)_k
            "v_sixteenth_sum_form": lambda n: ch.nahm_sum(ch.NahmData([[1]], [half]), n),
            "pochhammer_inf": lambda n: q_product(n, ((j, -1, 1) for j in range(1, n + 1))),
            "mod16_product": ch.mod16_product}
    for s in (2, 3):
        sums["andrews_gordon_product/%d" % s] = \
            lambda n, s=s: ch.andrews_gordon_product(s, n)
    for w in ch.MODULES:
        for side in ("Classical", "New"):
            sums["module_character/%s/%s" % (w, side)] = \
                lambda n, w=w, side=side: ch.module_character(w, side, n)
    for w in CLASSES:
        # the fixture holds each class sum under two names, which must agree
        sums["class_quasiparticle_form/%s" % w] = \
            sums["class_closed_form/%s" % w] = lambda n, w=w: ch.class_closed_form(w, n)
    for w in ("Euler", "FermionHalf", "QuintupleProduct"):
        sums["alt_expression/%s" % w] = lambda n, w=w: ch.alt_expression(w, n)
    for sector in SECTORS:
        sums["limit_series/%s" % sector] = \
            lambda n, sector=sector: limit_series(sector, n)
    return sums


@pytest.mark.parametrize("name", sorted(quasiparticle_sums()))
def test_golden_quasiparticle_sums(name, tq_json):
    golden = load_golden("quasiparticle_sums.json")[name]
    build = quasiparticle_sums()[name]
    for n in QUASIPARTICLE_SUM_ORDERS:
        got = build(n)
        got = json.dumps(tq_json(got, n) if isinstance(got, dict) else got.to_json_dict(),
                         sort_keys=True)
        assert got == json.dumps(golden[str(n)], sort_keys=True), (name, n)


def test_golden_family_polys():
    from qvir.polyfamilies import family_poly
    golden = load_golden("family_polys.json")
    assert sorted(golden) == sorted("%s/%s" % (sector, side)
                                    for sector in ("vac", "half", "sixteenth")
                                    for side in "ST")
    for name, by_n in golden.items():
        sector, side = name.split("/")
        start = 0 if sector == "vac" else 1
        assert sorted(by_n, key=int) == [str(n) for n in
                                         list(range(start, 13)) + [40, 41, 50, 51]]
        for n, want in by_n.items():
            assert family_poly(sector, side, int(n)).to_json_dict() == want, (name, n)
