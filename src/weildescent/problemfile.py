"""Sectioned plain-text problem files and result documents.

Problem files declare the number field, its automorphisms, the variety, and
the descent datum:

    [field]
    minpoly = t^2 + 1
    generator = i

    [galois]
    e = i
    conj = -i

    [variety]
    variables = x1, x2
    equation = 1 + x1^2 + x2^2

    [datum.conj]
    component = i*x1
    component = i*x2

    [options]
    order = grevlex
    budget = 1000000

Result documents reuse the same syntax with [Y], [map], [inverse] and
[certificates] sections.  Serialization is deterministic: identical inputs
yield byte-identical documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .descent import AffineVariety, DescentDatum, DescentResult
from .errors import InputError
from .groebner import _as_budget
from .multipoly import MonomialOrder, MultiPoly, PolyRing, RationalMap
from .numberfield import GaloisGroup, NumberField
from .parsing import parse_poly

__all__ = [
    "ProblemFile",
    "ClaimedModel",
    "parse_sections",
    "load_problem",
    "load_problem_text",
    "load_claimed_model",
    "render_result",
    "render_report",
]

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.@-]+)\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.*)$")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_sections(text: str):
    """[(section name, [(key, value, line number), ...]), ...] in file order."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = (m.group(1), [])
            sections.append(current)
            continue
        m = _KEY_RE.match(line)
        if m is None:
            raise InputError(f"line {lineno}: expected 'key = value' or '[section]'")
        if current is None:
            raise InputError(f"line {lineno}: entry before any [section] header")
        current[1].append((m.group(1), m.group(2).strip(), lineno))
    return sections


def _single(entries, key, lineno_hint="", required=True):
    vals = [v for k, v, _ in entries if k == key]
    if not vals:
        if required:
            raise InputError(f"missing required key {key!r}{lineno_hint}")
        return None
    if len(vals) > 1:
        raise InputError(f"key {key!r} given more than once{lineno_hint}")
    return vals[0]


def _parse_minpoly(text: str):
    """Rational coefficient list (ascending) of a monic-or-not univariate polynomial."""
    names = sorted(set(_NAME_RE.findall(text)))
    if len(names) != 1:
        raise InputError(
            f"minimal polynomial must use exactly one variable, found {names or 'none'}"
        )
    # Parse over Q (a degree-1 trivial extension) just to reuse the grammar.
    q = NumberField([0, 1], gen_name="_q")
    ring = PolyRing(q, (names[0],))
    p = parse_poly(text, ring)
    degree = p.total_degree()
    coeffs = [Fraction(0)] * (degree + 1)
    for mono, c in p.terms.items():
        coeffs[mono[0]] = c.as_rational()
    return coeffs


@dataclass
class ProblemFile:
    field: NumberField
    group: GaloisGroup
    labels: tuple  # group-element labels, indexed like the group
    datum: DescentDatum
    budget: list  # the run's one-element step list; loading drew from it
    options: dict = dc_field(default_factory=dict)

    @property
    def variety(self) -> AffineVariety:
        return self.datum.variety


def _scalar_ring(field):
    return PolyRing(field, ())


def _parse_scalar(text, field, where):
    try:
        p = parse_poly(text, _scalar_ring(field))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc
    return p.constant_value()


def _split_values(value):
    return [v.strip() for v in value.split(",") if v.strip()]


_OPTION_KEYS = {"order", "budget", "prune", "inverse"}
_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_options(entries):
    opts = {}
    for key, value, lineno in entries:
        if key not in _OPTION_KEYS:
            raise InputError(f"line {lineno}: unknown option {key!r}")
        if key == "order":
            if value not in ("grevlex", "lex"):
                raise InputError(f"line {lineno}: order must be grevlex or lex")
            opts[key] = value
        elif key == "budget":
            try:
                opts[key] = int(value)
            except ValueError:
                raise InputError(f"line {lineno}: budget must be an integer")
            if opts[key] <= 0:
                raise InputError(f"line {lineno}: budget must be positive")
        else:
            if value.lower() not in _BOOL:
                raise InputError(f"line {lineno}: {key} must be true or false")
            opts[key] = _BOOL[value.lower()]
    return opts


def _parse_components(entries, ring, where):
    """component/denominator entry pairs -> list of (num, den)."""
    comps = []
    for key, value, lineno in entries:
        if key == "component":
            comps.append([parse_poly(value, ring), ring.one])
        elif key == "denominator":
            if not comps:
                raise InputError(
                    f"line {lineno}: denominator before any component in {where}"
                )
            comps[-1][1] = parse_poly(value, ring)
        else:
            raise InputError(f"line {lineno}: unknown key {key!r} in {where}")
    return [tuple(c) for c in comps]


def load_problem_text(text: str, order=None, budget=None) -> ProblemFile:
    """Parse a problem file.

    `order` ("grevlex" or "lex") overrides [options] order and `budget` (an
    int) overrides [options] budget.  The budget is converted once: checking
    the equations while loading draws from it, and it is kept as
    ProblemFile.budget for the run.
    """
    sections = parse_sections(text)
    by_name = {}
    for name, entries in sections:
        if name in by_name and not name.startswith("datum."):
            raise InputError(f"duplicate section [{name}]")
        by_name.setdefault(name, entries)

    if "field" not in by_name:
        raise InputError("missing [field] section")
    gen_name = _single(by_name["field"], "generator")
    if not _NAME_RE.fullmatch(gen_name):
        raise InputError(f"invalid generator name {gen_name!r}")
    minpoly = _parse_minpoly(_single(by_name["field"], "minpoly"))
    field = NumberField(minpoly, gen_name=gen_name)

    if "galois" not in by_name:
        raise InputError("missing [galois] section")
    labels = []
    images = []
    for key, value, lineno in by_name["galois"]:
        if key in labels:
            raise InputError(f"line {lineno}: duplicate automorphism label {key!r}")
        labels.append(key)
        images.append(_parse_scalar(value, field, f"line {lineno}"))
    group = GaloisGroup(field, images)

    if "variety" not in by_name:
        raise InputError("missing [variety] section")
    var_names = _split_values(_single(by_name["variety"], "variables"))
    if not var_names:
        raise InputError("the [variety] section must declare variables")
    for v in var_names:
        if not _NAME_RE.fullmatch(v) or v == gen_name:
            raise InputError(f"invalid variable name {v!r}")
    options = _parse_options(by_name.get("options", []))
    order_name = order or options.get("order", "grevlex")
    budget = _as_budget(budget if budget is not None else options.get("budget"))
    ring = PolyRing(field, tuple(var_names), MonomialOrder(order_name))
    equations = [
        parse_poly(value, ring)
        for key, value, _ in by_name["variety"]
        if key == "equation"
    ]
    for key, _, lineno in by_name["variety"]:
        if key not in ("variables", "equation"):
            raise InputError(f"line {lineno}: unknown key {key!r} in [variety]")
    variety = AffineVariety(ring, equations, budget=budget)

    maps = {}
    label_index = {lab: i for i, lab in enumerate(labels)}
    for name, entries in sections:
        if not name.startswith("datum."):
            continue
        label = name[len("datum."):]
        if label not in label_index:
            raise InputError(f"section [{name}] names no declared automorphism")
        idx = label_index[label]
        if idx in maps:
            raise InputError(f"duplicate datum section for {label!r}")
        comps = _parse_components(entries, ring, f"[{name}]")
        if len(comps) != ring.nvars:
            raise InputError(
                f"[{name}] has {len(comps)} components, expected {ring.nvars}"
            )
        maps[idx] = RationalMap(ring, comps)
    for i in group:
        if i != group.identity_index and i not in maps:
            raise InputError(f"missing datum section for automorphism {labels[i]!r}")

    datum = DescentDatum(variety, group, maps)
    return ProblemFile(field=field, group=group, labels=tuple(labels),
                       datum=datum, budget=budget, options=options)


def _read(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def load_problem(path: str, order=None, budget=None) -> ProblemFile:
    return load_problem_text(_read(path, "problem file"), order=order, budget=budget)


# -- claimed models (for independent checking) ---------------------------------------


@dataclass
class ClaimedModel:
    y_ring: PolyRing
    y_generators: tuple
    map: RationalMap
    inverse: Optional[RationalMap]


def load_claimed_model_text(text: str, problem: ProblemFile) -> ClaimedModel:
    sections = parse_sections(text)
    by_name = dict(sections)
    if "Y" not in by_name:
        raise InputError("claimed document misses the [Y] section")
    if "map" not in by_name:
        raise InputError("claimed document misses the [map] section")
    y_vars = _split_values(_single(by_name["Y"], "variables"))
    if not y_vars:
        raise InputError("[Y] must declare its variables")
    field = problem.field
    y_ring = PolyRing(field, tuple(y_vars))
    y_gens = [
        parse_poly(value, y_ring)
        for key, value, _ in by_name["Y"]
        if key == "equation"
    ]
    x_ring = problem.variety.ring
    comps = _parse_components(by_name["map"], x_ring, "[map]")
    if len(comps) != len(y_vars):
        raise InputError(
            f"[map] has {len(comps)} components but [Y] declares {len(y_vars)} variables"
        )
    claimed_map = RationalMap(x_ring, comps)
    inverse = None
    if "inverse" in by_name and by_name["inverse"]:
        inv_comps = _parse_components(by_name["inverse"], y_ring, "[inverse]")
        if len(inv_comps) != x_ring.nvars:
            raise InputError(
                f"[inverse] has {len(inv_comps)} components, expected {x_ring.nvars}"
            )
        inverse = RationalMap(y_ring, inv_comps)
    return ClaimedModel(y_ring=y_ring, y_generators=tuple(y_gens),
                        map=claimed_map, inverse=inverse)


def load_claimed_model(path: str, problem: ProblemFile) -> ClaimedModel:
    return load_claimed_model_text(_read(path, "claimed document"), problem)


# -- serialization ------------------------------------------------------------------


def _emit_components(lines, F: RationalMap):
    for num, den in F.components:
        lines.append(f"component = {num}")
        if den != F.ring.one:
            lines.append(f"denominator = {den}")


def render_result(result: DescentResult) -> str:
    lines = ["[Y]"]
    lines.append(f"variables = {', '.join(result.y_ring.variables)}")
    for g in result.y_generators:
        lines.append(f"equation = {g}")
    lines.append("")
    lines.append("[map]")
    _emit_components(lines, result.map)
    if result.inverse is not None:
        lines.append("")
        lines.append("[inverse]")
        _emit_components(lines, result.inverse)
    lines.append("")
    lines.append("[certificates]")
    for key in sorted(result.certificates):
        lines.append(f"{key} = {'true' if result.certificates[key] else 'false'}")
    lines.append(f"invariant_count = {result.invariant_count}")
    if result.pruned:
        lines.append(f"pruned = {', '.join(result.pruned)}")
    lines.append("")
    return "\n".join(lines)


def render_report(report) -> str:
    lines = []
    for label, ok, witness in report.checks:
        status = "pass" if ok else "FAIL"
        if witness:
            lines.append(f"{status}  {label}  (witness: {witness})")
        else:
            lines.append(f"{status}  {label}")
    lines.append("result = " + ("pass" if report.ok else "FAIL"))
    lines.append("")
    return "\n".join(lines)
