"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps entry points of each qvir layer from outside the package:
it replaces the function object in every qvir module namespace (and class)
that holds it, so calls through ``from x import f`` names are seen too.
Spans stay in memory as tuples ``(name, start, end, parent, run_id)``, with
``parent`` the index of the enclosing span or -1, and are written out only
when the run ends.  A layer's self time is the time of its spans minus the
time their direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys

# (module, attribute path, span name) for every wrapped entry point; a span
# name's first component is its layer.
ENTRY_POINTS = (
    ("qvir.qseries", "QSeries.__mul__", "qseries.mul"),
    ("qvir.qseries", "QSeries.__add__", "qseries.add"),
    ("qvir.qseries", "QSeries.inverse", "qseries.inverse"),
    ("qvir.qseries", "QSeries.shift", "qseries.shift"),
    ("qvir.qseries", "QSeries.truncate", "qseries.truncate"),
    ("qvir.qseries", "q_binomial", "qseries.q_binomial"),
    ("qvir.qseries", "inv_pochhammer", "qseries.inv_pochhammer"),
    ("qvir.qseries", "pochhammer_inf", "qseries.pochhammer_inf"),
    ("qvir.polyfamilies", "family_poly", "polyfamilies.family_poly"),
    ("qvir.polyfamilies", "equality_check", "polyfamilies.equality_check"),
    ("qvir.polyfamilies", "limit_check", "polyfamilies.limit_check"),
    ("qvir.polyfamilies", "limit_series", "polyfamilies.limit_series"),
    ("qvir.polyfamilies", "recurrence_check_S", "polyfamilies.recurrence_check_S"),
    ("qvir.polyfamilies", "recurrence_residual", "polyfamilies.recurrence_residual"),
    ("qvir.characters", "alt_expression", "characters.alt_expression"),
    ("qvir.characters", "feigin_fuchs_character", "characters.feigin_fuchs_character"),
    ("qvir.characters", "congruence_product", "characters.congruence_product"),
    ("qvir.characters", "andrews_gordon_product", "characters.andrews_gordon_product"),
    ("qvir.characters", "nahm_sum", "characters.nahm_sum"),
    ("qvir.characters", "quasiparticle_chi", "characters.quasiparticle_chi"),
    ("qvir.characters", "module_character", "characters.module_character"),
    ("qvir.characters", "v_half_sum_form", "characters.v_half_sum_form"),
    ("qvir.characters", "v_sixteenth_sum_form", "characters.v_sixteenth_sum_form"),
    ("qvir.characters", "class_closed_form", "characters.class_closed_form"),
    ("qvir.characters", "class_quasiparticle_form", "characters.class_quasiparticle_form"),
    ("qvir.characters", "P_of_t_q", "characters.P_of_t_q"),
    ("qvir.characters", "functional_equation_check", "characters.functional_equation_check"),
    ("qvir.partitions", "enumerate_P", "partitions.enumerate_P"),
    ("qvir.partitions", "classify", "partitions.classify"),
    ("qvir.partitions", "count_table", "partitions.count_table"),
    ("qvir.partitions", "recursion_check", "partitions.recursion_check"),
    ("qvir.partitions", "forbidden_patterns", "partitions.forbidden_patterns"),
    ("qvir.diffalg", "_build_block", "diffalg.build_block"),
    ("qvir.diffalg", "_back_reduce", "diffalg.back_reduce"),
    ("qvir.diffalg", "_span_search", "diffalg.span_search"),
    ("qvir.diffalg", "membership", "diffalg.membership"),
    ("qvir.diffalg", "hilbert_quotient", "diffalg.hilbert_quotient"),
    ("qvir.diffalg", "ideal_slice", "diffalg.ideal_slice"),
    ("qvir.diffalg", "build_element", "diffalg.build_element"),
    ("qvir.diffalg", "prop51_check", "diffalg.prop51_check"),
    ("qvir.diffalg", "groebner_check", "diffalg.groebner_check"),
    ("qvir.diffalg", "verify_derivative_formulas", "diffalg.verify_derivative_formulas"),
    ("qvir.virasoro", "apply_mode", "virasoro.apply_mode"),
    ("qvir.virasoro", "solve_singular_vector", "virasoro.solve_singular_vector"),
    ("qvir.virasoro", "submodule_spaces", "virasoro.submodule_spaces"),
    ("qvir.virasoro", "quotient_graded_dims", "virasoro.quotient_graded_dims"),
    ("qvir.virasoro", "lemma_b_check", "virasoro.lemma_b_check"),
    ("qvir.virasoro", "lemma_bp_check", "virasoro.lemma_bp_check"),
    ("qvir.nahm", "solve_nahm_system", "nahm.solve"),
    ("qvir.nahm", "rogers_dilog", "nahm.rogers_dilog"),
    ("qvir.cli", "run_check", "cli.check"),
    ("qvir.cli", "render", "cli.render"),
)

LAYERS = ("qseries", "polyfamilies", "characters", "partitions", "diffalg",
          "virasoro", "nahm", "cli")

# characters.quasiparticle.s covers the quasiparticle double sums
QUASIPARTICLE = frozenset({"characters.quasiparticle_chi", "characters.module_character.New",
                           "characters.P_of_t_q", "characters.class_quasiparticle_form"})
ECHELON = frozenset({"diffalg.build_block", "diffalg.back_reduce", "diffalg.span_search"})


def _span_name(name, args):
    """Refine a span name by the argument that selects the work done."""
    if name == "cli.check":
        return "cli.check." + args[0]
    if name == "characters.module_character":
        return "%s.%s" % (name, args[1] if len(args) > 1 else "?")
    return name


class Recorder:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self, clock, run_id: str = ""):
        self.clock = clock
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.enumerated_sizes: set = set()
        self.missing: list[str] = []
        self._originals: dict = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, on_call=None, on_return=None):
        spans, stack, clock, run_id = self.spans, self.stack, self.clock, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (_span_name(name, args), start, end, parent, run_id)
            if on_return is not None:
                on_return(out)
            return out
        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that the imported qvir modules define."""
        for modname, path, name in ENTRY_POINTS:
            mod = sys.modules.get(modname)
            owner, attr = mod, path
            if mod is not None and "." in path:
                cls, attr = path.split(".")
                owner = getattr(mod, cls, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append("%s.%s" % (modname, path))
                continue
            self._originals[name] = orig
            wrapped = self.wrap(orig, name, *self._hooks(name))
            _replace_everywhere(orig, wrapped)
        self._count_echelon_rows()

    def _hooks(self, name):
        """(on_call, on_return) for the entry points that carry counts."""
        if name == "qseries.mul":
            return self._on_mul, None
        if name == "partitions.enumerate_P":
            return (lambda args: self.enumerated_sizes.add(args[0] if args else None),
                    lambda out: self.count("partitions.enumerated", len(out)))
        return None, None

    def _on_mul(self, args):
        a, b = args[0], args[1]
        if not (hasattr(b, "coeffs") and hasattr(b, "denom")):
            return  # scalar product
        self.count("qseries.mul.series")
        self.count("qseries.mul.term_pairs", len(a.coeffs) * len(b.coeffs))
        if a.denom == 1 and b.denom == 1:
            self.count("qseries.mul.unit_grid")

    def _count_echelon_rows(self) -> None:
        diffalg = sys.modules.get("qvir.diffalg")
        ech = getattr(diffalg, "_Echelon", None)
        insert = getattr(ech, "insert", None)
        if insert is None:
            self.missing.append("qvir.diffalg._Echelon.insert")
            return
        count = self.count

        @functools.wraps(insert)
        def counted(self_, row):
            kept = insert(self_, row)
            count("diffalg.echelon.rows")
            if kept:
                count("diffalg.echelon.kept")
            return kept
        ech.insert = counted

    # -- reading -------------------------------------------------------------

    def cache_hit_ratio(self, name: str) -> float:
        info = getattr(self._originals.get(name), "cache_info", None)
        if info is None:
            return 0.0
        ci = info()
        total = ci.hits + ci.misses
        return ci.hits / total if total else 0.0

    def cache_misses(self, name: str) -> int:
        info = getattr(self._originals.get(name), "cache_info", None)
        return info().misses if info is not None else 0

    def layer_metrics(self, commands) -> dict:
        """Every per-layer metric, as plain numbers (0 where a layer did not run)."""
        spans = self.spans
        self_s = self_times(spans)
        by_layer = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        self_by_name: dict[str, float] = {}
        for s, own in zip(spans, self_s):
            layer = s[0].split(".", 1)[0]
            if layer in by_layer:
                by_layer[layer] += own
            calls[s[0]] = calls.get(s[0], 0) + 1
            self_by_name[s[0]] = self_by_name.get(s[0], 0.0) + own

        def cover(names):
            return covered_time(spans, frozenset(names))

        c = self.counts
        series_muls = c.get("qseries.mul.series", 0)
        rows = c.get("diffalg.echelon.rows", 0)
        ep_calls = calls.get("partitions.enumerate_P", 0)
        diffalg = sys.modules.get("qvir.diffalg")
        virasoro = sys.modules.get("qvir.virasoro")
        m = {"%s.self_s" % layer: by_layer[layer] for layer in LAYERS}
        m.update({
            "qseries.mul.calls": calls.get("qseries.mul", 0),
            "qseries.mul.self_s": self_by_name.get("qseries.mul", 0.0),
            "qseries.mul.term_pairs": c.get("qseries.mul.term_pairs", 0),
            "qseries.mul.unit_grid_share":
                c.get("qseries.mul.unit_grid", 0) / series_muls if series_muls else 0.0,
            "qseries.inverse.calls": calls.get("qseries.inverse", 0),
            "qseries.inverse.self_s": self_by_name.get("qseries.inverse", 0.0),
            "qseries.q_binomial.hit_ratio": self.cache_hit_ratio("qseries.q_binomial"),
            "polyfamilies.family_poly.built": self.cache_misses("polyfamilies.family_poly"),
            "polyfamilies.family_poly.hit_ratio":
                self.cache_hit_ratio("polyfamilies.family_poly"),
            "characters.quasiparticle.s": cover(QUASIPARTICLE),
            "characters.nahm_sum.s": cover({"characters.nahm_sum"}),
            "partitions.enumerate_P.calls": ep_calls,
            "partitions.enumerate_P.s": cover({"partitions.enumerate_P"}),
            "partitions.enumerate_P.distinct_ratio":
                len(self.enumerated_sizes) / ep_calls if ep_calls else 0.0,
            "partitions.enumerated": c.get("partitions.enumerated", 0),
            "partitions.classify.calls": calls.get("partitions.classify", 0),
            "partitions.classify.s": cover({"partitions.classify"}),
            "partitions.count_table.calls": calls.get("partitions.count_table", 0),
            "diffalg.echelon.rows": rows,
            "diffalg.echelon.kept_ratio":
                c.get("diffalg.echelon.kept", 0) / rows if rows else 0.0,
            "diffalg.echelon.s": cover(ECHELON),
            "diffalg.membership.calls": calls.get("diffalg.membership", 0),
            "diffalg.membership.s": cover({"diffalg.membership"}),
            "diffalg.block_cache.entries": len(getattr(diffalg, "_BLOCK_CACHE", ())),
            "virasoro.apply_mode.calls": calls.get("virasoro.apply_mode", 0),
            "virasoro.apply_mode.s": cover({"virasoro.apply_mode"}),
            "virasoro.apply_cache.entries": len(getattr(virasoro, "_APPLY_CACHE", ())),
            "virasoro.quotient_graded_dims.s": cover({"virasoro.quotient_graded_dims"}),
            "nahm.solve.calls": calls.get("nahm.solve", 0),
            "nahm.solve.s": cover({"nahm.solve"}),
            "nahm.rogers_dilog.calls": calls.get("nahm.rogers_dilog", 0),
            "cli.render.s": cover({"cli.render"}),
        })
        for command in commands:
            m["cli.check.%s.s" % command] = cover({"cli.check." + command})
        return m

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id}) + "\n")


def _replace_everywhere(orig, wrapped) -> None:
    """Point every qvir module global and class attribute bound to orig at wrapped."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qvir" or modname.startswith("qvir.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)
            elif isinstance(val, type) and val.__module__ == modname:
                for ckey, cval in list(vars(val).items()):
                    if cval is orig:
                        setattr(val, ckey, wrapped)


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another; their durations add up to the time they cover.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def covered_time(spans, names) -> float:
    """Wall time inside spans named in names, counting nested ones once."""
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total
