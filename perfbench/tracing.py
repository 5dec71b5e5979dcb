"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces public functions of each weildescent module (and the
``descend`` phase helpers) with wrappers that record a span or bump a
counter, then puts the originals back.  A function is replaced under every
name that binds it in any weildescent module, because ``descent`` and ``cli``
import helpers into their own namespaces.  Nothing under ``src/`` changes.

A span is (name, start, end, parent span index, input id).  Spans are kept in
memory; ``dump`` writes them as JSON.

``Laps``, used by the end-to-end run, wraps functions the same way but only
reads the clock on entry and exit, so that each input's time splits into
laps short enough for their minimum over batches to be steady.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path).  A span is recorded for each call.
SPANS = [
    ("kernel.buchberger", "weildescent.kernel", "buchberger"),
    ("groebner.groebner", "weildescent.groebner", "groebner"),
    ("groebner.normal_form", "weildescent.groebner", "normal_form"),
    ("groebner.eliminate", "weildescent.groebner", "eliminate"),
    ("groebner.saturate", "weildescent.groebner", "saturate"),
    ("groebner.ideals_equal", "weildescent.groebner", "ideals_equal"),
    ("descent.image_ideal", "weildescent.groebner", "image_ideal"),
    ("descent.descend", "weildescent.descent", "descend"),
    ("descent.verify_datum", "weildescent.descent", "verify_datum"),
    # No metric of its own: keeps its ideals_equal calls out of sigma_stable_s.
    ("descent.x_stable", "weildescent.descent", "_x_stable_and_trivial"),
    ("descent.disjointify", "weildescent.descent", "disjointify"),
    ("descent.build_phi", "weildescent.descent", "build_phi"),
    ("descent.trace_descent", "weildescent.descent", "_trace_descend_generators"),
    ("descent.prune", "weildescent.descent", "_prune_coordinates"),
    ("descent.relation", "weildescent.descent", "maps_equal_mod_ideal"),
    ("descent.inverse", "weildescent.descent", "recover_inverse"),
    ("descent.restrict", "weildescent.descent", "_restrict_to_original"),
    ("descent.verify_inverse", "weildescent.descent", "_verify_inverse"),
    ("invariants.generate", "weildescent.invariants", "generate_invariants"),
    ("multipoly.compose_map", "weildescent.multipoly", "compose_map"),
    ("numberfield.field_init", "weildescent.numberfield", "NumberField.__init__"),
    ("numberfield.group_init", "weildescent.numberfield", "GaloisGroup.__init__"),
    ("problemfile.load", "weildescent.problemfile", "load_problem_text"),
    ("problemfile.load", "weildescent.problemfile", "load_claimed_model_text"),
    ("problemfile.render", "weildescent.problemfile", "render_result"),
    ("problemfile.render", "weildescent.problemfile", "render_report"),
    ("parsing.parse_poly", "weildescent.parsing", "parse_poly"),
    ("cli.main", "weildescent.cli", "main"),
]

# Hot or bookkeeping-only entry points: counted, no span.
COUNTERS = [
    ("kernel.normal_form", "weildescent.kernel", "normal_form"),
    ("groebner.gb_request", "weildescent.groebner", "Ideal.groebner_basis"),
    ("invariants.minimize", "weildescent.invariants", "minimize_generators"),
    ("numberfield.mul", "weildescent.numberfield", "NumberField._mul"),
    ("numberfield.inv", "weildescent.numberfield", "NumberField._inv"),
]

# Functions where the end-to-end run reads the clock (see ``Laps``): every
# span above, plus the inner loops of the pure-Python kernel and of the graded
# invariant test, so that most laps last milliseconds, not seconds.
LAP_POINTS = [(module, path) for _, module, path in SPANS] + [
    ("weildescent._pykernel", "_reduce"),
    ("weildescent.invariants", "_in_span_graded"),
    ("weildescent.invariants", "_echelon_reduce"),
]

# Per-layer metric -> (unit, how it is computed from one repetition).
#   ("total", span)            outermost time in that span name
#   ("calls", span)            number of spans of that name
#   ("under", span, parent)    time of spans whose parent span is `parent`
#   ("count", key)             a counter
#   ("max", key)               a maximum over the whole traced run
LAYER_METRICS = {
    "kernel.buchberger_s": ("s", ("total", "kernel.buchberger")),
    "kernel.buchberger_steps": ("count", ("count", "kernel.buchberger_steps")),
    "kernel.nvars_max": ("count", ("max", "kernel.nvars")),
    "kernel.normal_form_steps": ("count", ("count", "kernel.normal_form_steps")),
    "groebner.groebner_calls": ("count", ("calls", "groebner.groebner")),
    "groebner.groebner_s": ("s", ("total", "groebner.groebner")),
    "groebner.basis_len_max": ("count", ("max", "groebner.basis_len")),
    "groebner.gb_requests": ("count", ("count", "groebner.gb_requests")),
    "groebner.gb_cache_hits": ("count", ("count", "groebner.gb_cache_hits")),
    "groebner.eliminate_calls": ("count", ("calls", "groebner.eliminate")),
    "groebner.saturate_calls": ("count", ("calls", "groebner.saturate")),
    "groebner.ideals_equal_calls": ("count", ("calls", "groebner.ideals_equal")),
    "groebner.normal_form_calls": ("count", ("calls", "groebner.normal_form")),
    "groebner.normal_form_s": ("s", ("total", "groebner.normal_form")),
    "descent.descend_s": ("s", ("total", "descent.descend")),
    "descent.verify_datum_s": ("s", ("total", "descent.verify_datum")),
    "descent.disjointify_s": ("s", ("total", "descent.disjointify")),
    "descent.build_phi_s": ("s", ("total", "descent.build_phi")),
    "descent.compose_s": ("s", ("under", "multipoly.compose_map", "descent.descend")),
    "descent.image_ideal_s": ("s", ("total", "descent.image_ideal")),
    "descent.sigma_stable_s": ("s", ("under", "groebner.ideals_equal", "descent.descend")),
    "descent.trace_descent_s": ("s", ("total", "descent.trace_descent")),
    "descent.prune_s": ("s", ("total", "descent.prune")),
    "descent.relation_s": ("s", ("total", "descent.relation")),
    "descent.inverse_s": ("s", ("total", "descent.inverse")),
    "descent.restrict_s": ("s", ("total", "descent.restrict")),
    "descent.verify_inverse_s": ("s", ("total", "descent.verify_inverse")),
    "invariants.generate_s": ("s", ("total", "invariants.generate")),
    "invariants.orbit_sums": ("count", ("count", "invariants.orbit_sums")),
    "invariants.kept": ("count", ("count", "invariants.kept")),
    "numberfield.mul_calls": ("count", ("count", "numberfield.mul")),
    "numberfield.inv_calls": ("count", ("count", "numberfield.inv")),
    "numberfield.field_init_s": ("s", ("total", "numberfield.field_init")),
    "numberfield.group_init_s": ("s", ("total", "numberfield.group_init")),
    "multipoly.compose_map_calls": ("count", ("calls", "multipoly.compose_map")),
    "multipoly.compose_map_s": ("s", ("total", "multipoly.compose_map")),
    "problemfile.load_calls": ("count", ("calls", "problemfile.load")),
    "problemfile.load_s": ("s", ("total", "problemfile.load")),
    "problemfile.render_s": ("s", ("total", "problemfile.render")),
    "parsing.parse_poly_calls": ("count", ("calls", "parsing.parse_poly")),
    "parsing.parse_poly_s": ("s", ("total", "parsing.parse_poly")),
    "cli.main_calls": ("count", ("calls", "cli.main")),
    "cli.main_s": ("s", ("total", "cli.main")),
}


def _resolve(module_name, path):
    """(owner, attribute name, original) or None when the name is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        orig = owner.__dict__.get(attr)
    else:
        orig = getattr(owner, attr, None)
    if not callable(orig):
        return None
    return owner, attr, orig


def patch_everywhere(targets, make_wrapper, patches):
    """Replace each (module, attribute path, key) target with
    ``make_wrapper(key, original)`` under every name that binds the original
    in a loaded weildescent module.  Each replacement is appended to
    `patches`; the missing targets are returned."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "weildescent" or n.startswith("weildescent."))]
    absent = []
    for module_name, path, key in targets:
        found = _resolve(module_name, path)
        if found is None:
            absent.append(f"{module_name}.{path}")
            continue
        owner, attr, orig = found
        wrapper = make_wrapper(key, orig)
        setattr(owner, attr, wrapper)
        patches.append((owner, attr, orig))
        if not isinstance(owner, type):
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig and not (mod is owner and name == attr):
                        setattr(mod, name, wrapper)
                        patches.append((mod, name, orig))
    return absent


def unpatch(patches):
    """Put back every original that ``patch_everywhere`` replaced."""
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)
    patches.clear()


class Laps:
    """Lap marks for the end-to-end run: the clock read on entry to and exit
    from each function of LAP_POINTS, so that one input's wall time splits
    into short laps.  No span is kept."""

    def __init__(self):
        self.marks = []
        self.absent = []
        self._patches = []

    def _wrap(self, _key, orig):
        mark = self.marks.append
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            mark(clock())
            try:
                return orig(*args, **kwargs)
            finally:
                mark(clock())
        return wrapper

    def install(self):
        self.absent = patch_everywhere(
            [(m, path, None) for m, path in LAP_POINTS], self._wrap, self._patches)

    def uninstall(self):
        unpatch(self._patches)

    def clear(self):
        del self.marks[:]

    def split(self, t0, t1):
        """Lap durations from t0 through each mark since the last clear to
        t1; they sum to t1 - t0."""
        ts = [t0] + self.marks + [t1]
        self.clear()
        return [b - a for a, b in zip(ts, ts[1:])]


class Tracer:
    """Spans and counters for one run; ``install`` and ``uninstall`` patch."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, input id]
        self.counts = Counter()
        self.maxima = Counter()
        self.input_id = None
        self.absent = []
        self._stack = []
        self._patches = []

    # -- recording ----------------------------------------------------------------

    def _span(self, name, orig, after=None):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            rec = [name, time.perf_counter(), None, parent, self.input_id]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _counted(self, key, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _buchberger_after(self, args, out):
        gens = args[0]
        nvars = next((len(m) for g in gens for m in g if isinstance(m, tuple)), 0)
        self.maxima["kernel.nvars"] = max(self.maxima["kernel.nvars"], nvars)

    def _with_steps(self, key, orig):
        """Steps are the drop in the one-element budget list the kernel gets."""
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args):
            budget = args[-1] if args and isinstance(args[-1], list) else None
            if budget is None:
                return orig(*args)
            before = budget[0]
            try:
                return orig(*args)
            finally:
                counts[key] += before - budget[0]
        return wrapper

    def _wrap(self, name, orig):
        if name == "kernel.buchberger":
            inner = self._with_steps("kernel.buchberger_steps", orig)
            return self._span(name, inner, self._buchberger_after)
        if name == "groebner.groebner":
            def after(args, out):
                self.maxima["groebner.basis_len"] = max(
                    self.maxima["groebner.basis_len"], len(out.elements))
            return self._span(name, orig, after)
        if name == "kernel.normal_form":
            return self._with_steps("kernel.normal_form_steps", orig)
        if name == "groebner.gb_request":
            return self._gb_request(orig)
        if name == "invariants.minimize":
            return self._minimize(orig)
        if name in ("numberfield.mul", "numberfield.inv"):
            return self._counted(name, orig)
        return self._span(name, orig)

    def _gb_request(self, orig):
        """A request is a cache hit when no Groebner computation runs inside."""
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            before = len(self.spans)
            out = orig(*args, **kwargs)
            self.counts["groebner.gb_requests"] += 1
            if not any(s[0] == "groebner.groebner" for s in self.spans[before:]):
                self.counts["groebner.gb_cache_hits"] += 1
            return out
        return wrapper

    def _minimize(self, orig):
        @functools.wraps(orig)
        def wrapper(gens, *args, **kwargs):
            out = orig(gens, *args, **kwargs)
            self.counts["invariants.orbit_sums"] += len(gens)
            self.counts["invariants.kept"] += len(out)
            return out
        return wrapper

    # -- patching -------------------------------------------------------------------

    def install(self):
        """Replace every traced function; names that no longer exist are absent."""
        self.absent = patch_everywhere(
            [(m, path, name) for name, m, path in SPANS + COUNTERS],
            self._wrap, self._patches)

    def uninstall(self):
        unpatch(self._patches)

    # -- results --------------------------------------------------------------------

    def mark(self):
        """A position to later take the metrics of everything recorded after it."""
        return len(self.spans), Counter(self.counts)

    def metrics_since(self, mark):
        start, counts0 = mark
        spans = self.spans[start:]
        counts = self.counts - counts0
        # Outermost time per name: skip spans nested inside a span of the same name.
        total, calls, under = Counter(), Counter(), Counter()
        for s in spans:
            name, t0, t1, parent = s[0], s[1], s[2], s[3]
            calls[name] += 1
            anc = parent
            nested = False
            while anc >= 0:
                if self.spans[anc][0] == name:
                    nested = True
                    break
                anc = self.spans[anc][3]
            if not nested:
                total[name] += t1 - t0
            if parent >= 0:
                under[(name, self.spans[parent][0])] += t1 - t0
        out = {}
        for metric, (_, (kind, *keys)) in LAYER_METRICS.items():
            if kind == "total":
                out[metric] = total[keys[0]]
            elif kind == "calls":
                out[metric] = calls[keys[0]]
            elif kind == "under":
                out[metric] = under[(keys[0], keys[1])]
            elif kind == "count":
                out[metric] = counts[keys[0]]
            else:
                out[metric] = self.maxima[keys[0]]
        return out

    def dump(self, path, meta):
        """Write spans and per-name total and self time as JSON."""
        child = Counter()
        total = Counter()
        for name, t0, t1, parent, _ in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = Counter()
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_time[name] += (t1 - t0) - child[idx]
        doc = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "input"],
            "spans": self.spans,
            "total_s": dict(sorted(total.items())),
            "self_s": dict(sorted(self_time.items())),
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
