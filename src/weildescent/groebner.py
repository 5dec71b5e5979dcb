"""Ideals, reduced Groebner bases, elimination, saturation, images of maps.

All computation is exact over the coefficient number field.  Identical inputs
produce bit-identical reduced bases; a configurable step budget guards against
blowup (ResourceLimit on breach, never a silent hang).
"""

from __future__ import annotations

from . import kernel
from .kernel import DEFAULT_BUDGET
from .errors import InputError, ZeroDenominator
from .multipoly import MonomialOrder, MultiPoly, PolyRing, RationalMap

__all__ = [
    "Ideal",
    "GroebnerBasis",
    "groebner",
    "normal_form",
    "eliminate",
    "saturate",
    "image_ideal",
    "ideals_equal",
]


class Ideal:
    """An ideal of a polynomial ring, given by generators.

    It keeps its reduced bases, one per order, and its saturations, one per
    polynomial saturated by, so each is computed once.
    """

    __slots__ = ("ring", "generators", "_gb_cache", "_sat_cache")

    def __init__(self, ring: PolyRing, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise InputError("ideal generators must share one ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb_cache = {}
        self._sat_cache = {}

    def __repr__(self):
        return f"Ideal<{', '.join(str(g) for g in self.generators)}>"

    def groebner_basis(self, order=None, budget=None) -> "GroebnerBasis":
        order = order or self.ring.order
        cached = self._gb_cache.get(order)
        if cached is not None:
            return cached
        gb = groebner(self, order, budget)
        self._gb_cache[order] = gb
        return gb

    def is_unit(self, budget=None) -> bool:
        gb = self.groebner_basis(budget=budget)
        return len(gb.elements) == 1 and gb.elements[0].is_constant()

    def is_zero(self) -> bool:
        return not self.generators

    def sigma(self, group, i) -> "Ideal":
        return Ideal(self.ring, [g.sigma(group, i) for g in self.generators])


class GroebnerBasis:
    """A reduced basis in its ring's order, kept as the kernel returns it.

    `divisors` are (lead monomial, monic terms) pairs sorted by lead, ready
    for kernel.normal_form; `elements` are the same polynomials.
    """

    __slots__ = ("ring", "divisors", "elements")

    def __init__(self, ring: PolyRing, divisors):
        self.ring = ring
        self.divisors = tuple(divisors)
        self.elements = tuple(MultiPoly(ring, terms) for _, terms in self.divisors)

    def __repr__(self):
        return f"GroebnerBasis<{', '.join(str(g) for g in self.elements)}>"


def _as_budget(budget):
    """The one-element list of remaining steps that every kernel call draws from.

    An int (or None, meaning DEFAULT_BUDGET) becomes a fresh list; a list is
    passed through, so converting once at an entry point caps the whole run.
    """
    if budget is None:
        return [DEFAULT_BUDGET]
    if isinstance(budget, list):
        return budget
    return [budget]


def groebner(I: Ideal, order=None, budget=None) -> GroebnerBasis:
    """The reduced Groebner basis of I under the given order."""
    order = order or I.ring.order
    gens = [g.terms for g in I.generators]
    divisors = kernel.buchberger(gens, order.key, _as_budget(budget))
    ring = I.ring if I.ring.order == order else I.ring.with_order(order)
    return GroebnerBasis(ring, divisors)


def normal_form(P: MultiPoly, gb: GroebnerBasis, budget=None) -> MultiPoly:
    """Unique remainder of P modulo the basis; zero iff P is in the ideal."""
    if P.ring.variables != gb.ring.variables or P.ring.field != gb.ring.field:
        raise InputError("polynomial and basis live in different rings")
    budget = _as_budget(budget)
    rem = kernel.normal_form(P.terms, gb.divisors, gb.ring.order.key, budget)
    return MultiPoly(gb.ring, rem)


def _block_basis(I: Ideal, first, budget=None):
    """Basis of I in the block order that eliminates the variables named in `first`.

    Those variables move to the front, in ring order, and the rest follow in
    ring order.  Returns (basis, size of the first block).
    """
    ring = I.ring
    names = [v for v in ring.variables if v in first]
    split = len(names)
    names += [v for v in ring.variables if v not in first]
    block = PolyRing(ring.field, names, MonomialOrder("block", split=split))
    moved = Ideal(block, [g.transplant(block) for g in I.generators])
    return moved.groebner_basis(budget=budget), split


def eliminate(I: Ideal, drop_vars, budget=None) -> Ideal:
    """I intersected with the subring free of the variables named in drop_vars."""
    for v in drop_vars:
        if v not in I.ring.variables:
            raise InputError(f"no variable {v!r} to eliminate")
    return _second_block(*_block_basis(I, set(drop_vars), budget))


def _second_block(gb: GroebnerBasis, split) -> Ideal:
    """The elimination ideal of the first `split` variables of a block-order
    basis with that split.

    The basis elements free of those variables are its reduced grevlex basis
    (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, Ch. 3 Sec. 1).
    The ideal is returned in a grevlex ring over the remaining variables,
    generated by that basis and with it cached.
    """
    ring = PolyRing(gb.ring.field, gb.ring.variables[split:], MonomialOrder("grevlex"))
    basis = GroebnerBasis(ring, [
        (lead[split:], {m[split:]: c for m, c in terms.items()})
        for lead, terms in gb.divisors
        if not any(lead[:split])
    ])
    return _generated_by(basis)


def _generated_by(basis: GroebnerBasis) -> Ideal:
    """The ideal that a reduced basis generates, with that basis cached."""
    ideal = Ideal(basis.ring, basis.elements)
    ideal._gb_cache[basis.ring.order] = basis
    return ideal


def _fresh_name(name, taken):
    """`name`, with "_" put in front until it is not in `taken`."""
    while name in taken:
        name = "_" + name
    return name


def saturate(I: Ideal, h: MultiPoly, budget=None) -> Ideal:
    """I : h^infinity: the auxiliary variable t eliminated from I + <1 - t*h>.

    I keeps the result, keyed on h, so saturating by h again is free.
    """
    if h.is_zero():
        raise InputError("cannot saturate by the zero polynomial")
    sat = I._sat_cache.get(h)
    if sat is not None:
        return sat
    ring = I.ring
    aux = _fresh_name("_sat", set(ring.variables))
    big = PolyRing(ring.field, (aux,) + ring.variables)
    gens = [g.transplant(big) for g in I.generators]
    gens.append(big.one - big.var(aux) * h.transplant(big))
    sat = eliminate(Ideal(big, gens), [aux], budget)
    if sat.ring != ring:
        # A lex caller gets the generators back in its own ring.
        sat = Ideal(ring, [g.transplant(ring) for g in sat.generators])
    I._sat_cache[h] = sat
    return sat


def _denominator_product(maps):
    """Product of the maps' non-constant denominators, or None if there are none."""
    prod = None
    for f in maps:
        for _, den in f.components:
            if not den.is_constant():
                prod = den if prod is None else prod * den
    return prod


def _graph_basis(F: RationalMap, I_source: Ideal, target_vars, budget=None):
    """Block-order basis of the graph of F on V(I_source), denominators saturated.

    The first block holds the source variables, then one auxiliary variable
    when F has non-constant denominators; the second block holds the target
    variables (a tuple of names).  Returns (basis, size of the first block).
    """
    ring = I_source.ring
    names = list(ring.variables)
    prod = _denominator_product([F])
    if prod is not None:
        names.append(_fresh_name("_sat", set(names) | set(target_vars)))
    big = PolyRing(ring.field, tuple(names) + target_vars)
    gens = [g.transplant(big) for g in I_source.generators]
    for tname, (num, den) in zip(target_vars, F.components):
        gens.append(big.var(tname) * den.transplant(big) - num.transplant(big))
    if prod is not None:
        gens.append(big.one - big.var(names[-1]) * prod.transplant(big))
    return _block_basis(Ideal(big, gens), set(names), budget)


def image_ideal(F: RationalMap, I_source: Ideal, target_vars, budget=None) -> Ideal:
    """Ideal of the Zariski closure of F(V(I_source)) in the target variables.

    Graph ideal plus saturation by the product of denominators, then
    elimination of the source variables, all in one block-order basis.
    """
    ring = I_source.ring
    if F.ring != ring:
        raise InputError("map source ring does not match the ideal's ring")
    if len(target_vars) != F.target_arity:
        raise InputError("target variable count does not match map arity")
    target_vars = tuple(target_vars)
    taken = set(ring.variables) | set(target_vars)
    if len(taken) != ring.nvars + len(target_vars):
        raise InputError("target variables collide with source variables")

    src_gb = I_source.groebner_basis(budget=budget)
    for _, den in F.components:
        if not den.is_constant() and normal_form(den, src_gb, budget).is_zero():
            raise ZeroDenominator(
                "a map denominator vanishes identically on the source variety"
            )

    return _second_block(*_graph_basis(F, I_source, target_vars, budget))


def ideals_equal(I: Ideal, J: Ideal, budget=None) -> bool:
    """Equality as ideals: reduced bases under a fixed order coincide."""
    if I.ring.variables != J.ring.variables or I.ring.field != J.ring.field:
        raise InputError("ideals live in different rings")
    order = MonomialOrder("grevlex")
    gi = I.groebner_basis(order=order, budget=budget)
    gj = J.groebner_basis(order=order, budget=budget)
    return [g.terms for g in gi.elements] == [g.terms for g in gj.elements]
