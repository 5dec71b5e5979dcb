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

from ._pykernel import _as_budget, _run
from .descent import AffineVariety, DescentDatum, DescentResult
from .errors import InputError
from .multipoly import MonomialOrder, MultiPoly, PolyRing, RationalMap
from .numberfield import GaloisGroup, NumberField, _check_root
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
    """[(section name, header line number, [(key, value, line number), ...]),
    ...] in file order."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = (m.group(1), lineno, [])
            sections.append(current)
            continue
        m = _KEY_RE.match(line)
        if m is None:
            raise InputError(f"line {lineno}: expected 'key = value' or '[section]'")
        if current is None:
            raise InputError(f"line {lineno}: entry before any [section] header")
        current[2].append((m.group(1), m.group(2).strip(), lineno))
    return sections


def _single(entries, key):
    """(value, line number) of the one entry for key."""
    vals = [(v, lineno) for k, v, lineno in entries if k == key]
    if not vals:
        raise InputError(f"missing required key {key!r}")
    if len(vals) > 1:
        raise InputError(f"key {key!r} given more than once")
    return vals[0]


def _at_line(lineno, fn, *args):
    """fn(*args); an InputError it raises names the line."""
    try:
        return fn(*args)
    except InputError as exc:
        raise InputError(f"line {lineno}: {exc}") from exc


def _parse(text, ring, lineno):
    """parse_poly(text, ring); an InputError names the line of text."""
    return _at_line(lineno, parse_poly, text, ring)


# Q as a degree-1 extension, over which the minimal polynomial is parsed to
# reuse the expression grammar.
_RATIONALS = NumberField([0, 1], gen_name="_q")


def _parse_minpoly(text: str, lineno):
    """Rational coefficient list (ascending) of a monic-or-not univariate polynomial."""
    names = sorted(set(_NAME_RE.findall(text)))
    if len(names) != 1:
        raise InputError(
            f"line {lineno}: minimal polynomial must use exactly one variable, "
            f"found {names or 'none'}"
        )
    ring = PolyRing(_RATIONALS, (names[0],))
    p = _parse(text, ring, lineno)
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


def _split_values(value):
    return [v.strip() for v in value.split(",") if v.strip()]


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_options(entries):
    opts = {}
    for key, value, lineno in entries:
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
        else:  # prune or inverse
            if value.lower() not in _BOOL:
                raise InputError(f"line {lineno}: {key} must be true or false")
            opts[key] = _BOOL[value.lower()]
    return opts


def _parse_components(entries, header, ring, where, expected):
    """component/denominator entry pairs -> list of (num, den), exactly
    `expected` of them.  A wrong count names the line of the first surplus
    component, or the section's last line when components are missing: the
    header line of an empty section."""
    comps = []
    for key, value, lineno in entries:
        if key == "component":
            comps.append([_parse(value, ring, lineno)])
        elif comps and len(comps[-1]) == 1:
            comps[-1].append(_parse(value, ring, lineno))
        else:
            raise InputError(
                f"line {lineno}: denominator without its own component in {where}"
            )
    if len(comps) != expected:
        msg = f"{where} has {len(comps)} components, expected {expected}"
        starts = [lineno for key, _, lineno in entries if key == "component"]
        if len(comps) > expected:
            lineno = starts[expected]
        else:
            lineno = entries[-1][2] if entries else header
        raise InputError(f"line {lineno}: {msg}")
    return [(c[0], c[1] if len(c) == 2 else ring.one) for c in comps]


def _variable_names(entries, gen_name, where):
    """The names declared by `where`'s variables line: at least one, each a
    valid name other than the field generator's, and no name twice."""
    value, lineno = _single(entries, "variables")
    names = _split_values(value)
    if not names:
        raise InputError(f"line {lineno}: {where} must declare its variables")
    for k, v in enumerate(names):
        if not _NAME_RE.fullmatch(v) or v == gen_name:
            raise InputError(f"line {lineno}: invalid variable name {v!r} in {where}")
        if v in names[:k]:
            raise InputError(f"line {lineno}: duplicate variable name {v!r} in {where}")
    return names


# Allowed keys per section ("datum.*" stands for every [datum.<label>]);
# None lets any key through.
_COMPONENT_KEYS = {"component", "denominator"}
_PROBLEM_KEYS = {
    "field": {"minpoly", "generator"},
    "galois": None,  # the keys are the automorphism labels
    "variety": {"variables", "equation"},
    "options": {"order", "budget", "prune", "inverse"},
    "datum.*": _COMPONENT_KEYS,
}
_CLAIMED_KEYS = {
    "Y": {"variables", "equation"},
    "map": _COMPONENT_KEYS,
    "inverse": _COMPONENT_KEYS,
    "certificates": None,
}


def _sections_by_name(sections, allowed):
    """{name: entries} and {name: header line number}.  A section missing
    from `allowed`, or a key missing from its section's set, is an error, and
    so is a repeated section, except [datum.*], whose repeats are reported by
    label."""
    by_name, headers = {}, {}
    for name, header, entries in sections:
        datum = name.startswith("datum.")
        kind = "datum.*" if datum else name
        if kind not in allowed:
            raise InputError(f"unknown section [{name}]")
        if name in by_name and not datum:
            raise InputError(f"duplicate section [{name}]")
        keys = allowed[kind]
        for key, _, lineno in entries:
            if keys is not None and key not in keys:
                raise InputError(f"line {lineno}: unknown key {key!r} in [{name}]")
        by_name.setdefault(name, entries)
        headers.setdefault(name, header)
    return by_name, headers


def load_problem_text(text: str, order=None, budget=None) -> ProblemFile:
    """Parse a problem file.

    `order` ("grevlex" or "lex") overrides [options] order and `budget` (an
    int) overrides [options] budget.  The budget is converted once: testing
    the minimal polynomial, checking the equations and normalising the datum
    maps while loading draw from it, and it is kept as ProblemFile.budget for
    the run.
    """
    sections = parse_sections(text)
    by_name, headers = _sections_by_name(sections, _PROBLEM_KEYS)
    for name in ("field", "galois", "variety"):
        if name not in by_name:
            raise InputError(f"missing [{name}] section")
    options = _parse_options(by_name.get("options", []))
    order_name = order or options.get("order", "grevlex")
    budget = _as_budget(budget if budget is not None else options.get("budget"))

    with _run(budget):
        gen_name = _single(by_name["field"], "generator")[0]
        if not _NAME_RE.fullmatch(gen_name):
            raise InputError(f"invalid generator name {gen_name!r}")
        minpoly = _parse_minpoly(*_single(by_name["field"], "minpoly"))
        field = NumberField(minpoly, gen_name=gen_name)

        galois = by_name["galois"]
        labels = []
        images = []
        for key, value, lineno in galois:
            if key in labels:
                raise InputError(f"line {lineno}: duplicate automorphism label {key!r}")
            labels.append(key)
            images.append(_parse(value, PolyRing(field, ()), lineno).constant_value())
        try:
            group = GaloisGroup(field, images)
        except InputError as exc:
            # An image that is not a root is named by its line, and two equal
            # images by the later one's; a wrong count, a missing identity or
            # a set not closed under composition by the section's header.
            for image, (_, _, lineno) in zip(images, galois):
                _at_line(lineno, _check_root, field, image)
            lineno = headers["galois"]
            if len(images) == field.degree:
                lineno = next((n for k, (_, _, n) in enumerate(galois)
                               if images[k] in images[:k]), lineno)
            raise InputError(f"line {lineno}: {exc}") from exc

        var_names = _variable_names(by_name["variety"], gen_name, "[variety]")
        ring = PolyRing(field, tuple(var_names), MonomialOrder(order_name))
        equations = [
            _parse(value, ring, lineno)
            for key, value, lineno in by_name["variety"]
            if key == "equation"
        ]
        variety = AffineVariety(ring, equations)

        maps, identity_line = {}, None
        label_index = {lab: i for i, lab in enumerate(labels)}
        for name, header, entries in sections:
            if not name.startswith("datum."):
                continue
            label = name[len("datum."):]
            if label not in label_index:
                raise InputError(f"section [{name}] names no declared automorphism")
            idx = label_index[label]
            if idx in maps:
                raise InputError(f"duplicate datum section for {label!r}")
            comps = _parse_components(entries, header, ring, f"[{name}]", ring.nvars)
            maps[idx] = RationalMap(ring, comps)
            if idx == group.identity_index:
                identity_line = entries[0][2]
        for i in group.nontrivial:
            if i not in maps:
                raise InputError(f"missing datum section for automorphism {labels[i]!r}")

        if identity_line is None:
            datum = DescentDatum(variety, group, maps)
        else:
            # DescentDatum rejects an identity section that is not the
            # identity; the error names the section's first line.
            datum = _at_line(identity_line, DescentDatum, variety, group, maps)
    return ProblemFile(field=field, group=group, labels=tuple(labels),
                       datum=datum, budget=budget, options=options)


def _read(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    by_name, headers = _sections_by_name(parse_sections(text), _CLAIMED_KEYS)
    for name in ("Y", "map"):
        if name not in by_name:
            raise InputError(f"claimed document misses the [{name}] section")
    field = problem.field
    y_vars = _variable_names(by_name["Y"], field.gen_name, "[Y]")
    y_ring = PolyRing(field, tuple(y_vars))
    y_gens = [
        _parse(value, y_ring, lineno)
        for key, value, lineno in by_name["Y"]
        if key == "equation"
    ]
    x_ring = problem.variety.ring
    comps = _parse_components(by_name["map"], headers["map"], x_ring, "[map]",
                              len(y_vars))
    inverse = None
    with _run(problem.budget):
        claimed_map = RationalMap(x_ring, comps)
        if "inverse" in by_name and by_name["inverse"]:
            inv_comps = _parse_components(by_name["inverse"], headers["inverse"],
                                          y_ring, "[inverse]", x_ring.nvars)
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
