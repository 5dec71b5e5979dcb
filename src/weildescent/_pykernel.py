"""Pure-Python Buchberger kernel.

Polynomials enter as nonzero dicts exponent-tuple -> coefficient, where
coefficients are NumberFieldElements of one field.  The monomial order enters
as the MonomialOrder itself.  A basis leaves buchberger, and divisors enter
normal_form, as (lead monomial, monic terms) pairs.  weildescent.kernel
re-exports the two entry points.

- buchberger takes S-pairs in order of sugar degree (Giovini, Mora, Niesi,
  Robbiano, Traverso, "One sugar cube, please", ISSAC 1991).  It prunes
  pairs once, as each basis element enters, by Gebauer and Moller's update
  (JSC 6, 1988; UPDATE in Becker & Weispfenning, Groebner Bases, 1993).
- In lex, buchberger first solves the linear generators, in the spirit of
  Faugere's F4 (JPAA 139, 1999): those of total degree <= 1 go to echelon
  form, and every other generator is replaced by its remainder modulo that
  echelon before any pair is formed.  A graph generator t_j - Q_j(x) then
  becomes t_j - Q_j(M t), whose lead is free of the solved variables, so
  the product criterion drops many of its pairs.  A reduced basis depends
  only on the ideal (Cox, Little & O'Shea, Ideals, Varieties, and
  Algorithms, Ch. 2 Sec. 7), so the output is the same.  In a degree or
  block order the substituted leads are products of the t_j and share
  variables, and the step can cost more than it saves, so it is not taken.
- Division keeps the polynomial being reduced as a dict plus a heap of its
  monomials, so each step pops the largest term instead of scanning every
  term (Monagan & Pearce, CASC 2007).
- Inside a call a monomial is one int, its exponents packed into fields of
  w bits, variable i in bits i*w .. i*w + w - 1, the top bit of each field a
  guard that is clear in every monomial (Monagan & Pearce's packed exponent
  vectors).  With G the mask of the guard bits, a product is a + b, b divides
  a when ((a | G) - b) & G == G, and the same mask picks the larger field of
  each variable for an lcm.
- The order key of a monomial is one int as well: its key tuple read as the
  digits of a number in a base larger than twice any digit of a monomial
  that fits the fields.  MonomialOrder keys are linear in the exponents, so
  that int is a dot product with weights read off the key of each unit
  vector, and the key of a product is the sum of the keys.  The heap holds
  negated keys, so heapq pops the largest monomial first.
- Fields start 16 bits wide.  An input exponent, or a product that would
  not fit them, raises _Overflow before anything is stored; the call then
  resets the budget to what it was on entry and starts again with fields
  twice as wide, so each step is counted once.  Exponent tuples and ints are
  converted only on the way in and out.  The layout and the weights are
  derived once per (order, number of variables, field width) and kept.
- A coefficient is its (num, den) pair inside a call, and arithmetic is the
  field's pair functions (NumberField.pair_mul, pair_add, pair_sub, pair_neg
  and pair_inv; nf is that field).  The kernel reads c.pair, the one form in
  which an element c stores itself, as it packs each term, and wraps pairs
  as elements of the input's field object again only on the way out.
  Nothing the module keeps between calls refers to a field.

The budget is a single-element list of remaining reduction steps, decremented
in place so one cap can span a whole pipeline.  This module owns the run's
list: each public entry point of the package opens _run(budget), which makes
that list the active run's (one contextvars.ContextVar, PEP 567), and every
step spent below it, in the kernel, the invariant echelon, substitutions,
fraction normal forms and the irreducibility test, draws from it through
_as_budget(None).  Outside any
run, None means a fresh list of DEFAULT_BUDGET steps.
"""

import heapq
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from operator import itemgetter, mul

from .errors import ResourceLimit

IMPL = "python"
DEFAULT_BUDGET = 10**6

# The active run's one-element list of remaining steps, or None outside a run.
_RUN_BUDGET = ContextVar("weildescent_run_budget", default=None)


def _as_budget(budget):
    """The one-element list of remaining steps that every kernel call draws from.

    A list is used as given and an int becomes a fresh list.  None means the
    active run's list, or a fresh DEFAULT_BUDGET list outside any run.
    """
    if budget is None:
        budget = _RUN_BUDGET.get()
        return [DEFAULT_BUDGET] if budget is None else budget
    if isinstance(budget, list):
        return budget
    return [budget]


@contextmanager
def _run(budget=None):
    """Make _as_budget(budget) the active run's list while the block runs.

    A public entry point opens one around its work, so every step it spends,
    in nested entry points and helpers too, draws from that one list.
    """
    token = _RUN_BUDGET.set(_as_budget(budget))
    try:
        yield
    finally:
        _RUN_BUDGET.reset(token)


def _spend(budget, amount=1):
    budget[0] -= amount
    if budget[0] < 0:
        raise ResourceLimit("reduction budget exceeded")


class _Overflow(Exception):
    """A monomial outgrew its packed fields; the call starts again wider."""


_FIRST_WIDTH = 16
_STRUCT_CODES = {16: "H", 32: "I", 64: "Q"}
# (order, number of variables, field width) -> _Packing, filled on first use.
# Each entry is a function of its key alone, so no caller sees another's.
_PACKINGS = {}


class _Packing:
    """Packed monomials and negated int keys for one order, number of
    variables and field width."""

    __slots__ = ("width", "guard", "pack", "unpack", "weights")

    def __init__(self, keyf, nvars, width):
        shifts = range(0, nvars * width, width)
        limit = 1 << (width - 1)
        self.width = width
        self.guard = guard = sum(limit << s for s in shifts)
        code = _STRUCT_CODES.get(width)
        if code is not None:
            layout = struct.Struct(f"<{nvars}{code}")
            size, from_bytes = layout.size, int.from_bytes

            def pack(e):
                try:
                    m = from_bytes(layout.pack(*e), "little")
                except struct.error:
                    raise _Overflow from None
                if m & guard:
                    raise _Overflow
                return m

            def unpack(m):
                return layout.unpack(m.to_bytes(size, "little"))
        else:
            field = limit - 1

            def pack(e):
                if max(e, default=0) >= limit:
                    raise _Overflow
                return sum(x << s for x, s in zip(e, shifts))

            def unpack(m):
                return tuple((m >> s) & field for s in shifts)

        self.pack, self.unpack = pack, unpack
        rows = list(zip(*_unit_keys(keyf, nvars)))
        digit = max((sum(map(abs, row)) for row in rows), default=0) * (limit - 1)
        base = 1 << (digit.bit_length() + 1)
        key = [0] * nvars
        for row in rows:
            key = [k * base + x for k, x in zip(key, row)]
        self.weights = tuple(-k for k in key)

    def terms(self, poly):
        """(negated key, monomial, coefficient pair) triples of a dict
        polynomial."""
        pack, weights = self.pack, self.weights
        return [(sum(map(mul, e, weights)), pack(e), c.pair) for e, c in poly.items()]

    def lcm(self, a, b):
        """The least common multiple of two packed monomials."""
        guard = self.guard
        ge = ((a | guard) - b) & guard    # guard bits of the fields where a >= b
        fields = ge - (ge >> (self.width - 1))
        return (a & fields) | (b & ~fields)


def _unit_keys(keyf, nvars):
    return [keyf(tuple(int(i == j) for j in range(nvars))) for i in range(nvars)]


def _packing(order, nvars, width):
    """The _Packing of a MonomialOrder in nvars variables, built on first use."""
    pk = _PACKINGS.get((order, nvars, width))
    if pk is None:
        pk = _PACKINGS[order, nvars, width] = _Packing(order.key, nvars, width)
    return pk


def _packed(run, nvars, order, budget):
    """run(packing), first with 16-bit fields, then twice as wide after each
    _Overflow, with the budget reset to its value on entry."""
    left = budget[0]
    width = _FIRST_WIDTH
    while True:
        try:
            return run(_packing(order, nvars, width))
        except _Overflow:
            budget[0] = left
            width *= 2


# A divisor is a list [lead, negated key of the lead, top, tail, lead
# coefficient]: tail holds the (negated key, monomial, coefficient) triples
# of the other terms, and top is the lcm of all its monomials, so that
# shift + top fits the fields exactly when every product shift * term does.
# normal_form packs only the leads of its divisors up front: the key slot is
# None and the top slot holds the caller's terms dict until _fill runs.

def _divisor(first, rest, pk):
    """The divisor with lead triple first and other triples rest."""
    top, lcm = first[1], pk.lcm
    for t in rest:
        top = lcm(top, t[1])
    return [first[1], first[0], top, rest, first[2]]


def _monic(terms, pk, nf):
    """The divisor of a nonzero polynomial given as triples, lead first."""
    k0, lead, c0 = terms[0]
    (one, *rest), den = c0
    if one == den == 1 and not any(rest):
        return _divisor(terms[0], terms[1:], pk)
    inv = nf.pair_inv(c0)
    times = nf.pair_mul
    tail = [(k, m, times(c, inv)) for k, m, c in terms[1:]]
    return _divisor((k0, lead, times(c0, inv)), tail, pk)


def _fill(d, pk):
    """Pack the terms of a divisor that normal_form was handed; its
    coefficients are monic already."""
    triples = pk.terms(d[2])
    first = next(t for t in triples if t[1] == d[0])
    triples.remove(first)
    d[:] = _divisor(first, triples, pk)


def _divisor_terms(d):
    return [(d[1], d[0], d[4])] + d[3]


def _reduce(f, basis, pk, nf, budget):
    """Remainder of f modulo a list of monic divisors, as (negated key,
    monomial, coefficient pair) triples from the largest monomial down.

    f is an iterable of such triples.  h maps the negated key of each term
    still to reduce to its coefficient, and mono maps it to its monomial.
    heap holds each negated key as it enters h; one whose term has since
    cancelled out of h is skipped when popped.
    """
    guard = pk.guard
    h, mono = {}, {}
    for k, m, c in f:
        h[k] = c
        mono[k] = m
    heap = list(h)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    times, plus, negate = nf.pair_mul, nf.pair_add, nf.pair_neg
    remainder = []
    while heap:
        k = pop(heap)
        c = h.pop(k, None)
        if c is None:
            continue
        lead = mono[k]
        lg = lead | guard
        for d in basis:
            if (lg - d[0]) & guard == guard:
                break
        else:
            remainder.append((k, lead, c))
            continue
        _spend(budget)
        if d[1] is None:
            _fill(d, pk)
        shift = lead - d[0]
        if (shift + d[2]) & guard:
            raise _Overflow
        ks = k - d[1]
        c = negate(c)
        for kt, m, cc in d[3]:
            kk = ks + kt
            cur = h.get(kk)
            if cur is None:
                h[kk] = times(c, cc)
                mono[kk] = shift + m
                push(heap, kk)
            else:
                nxt = plus(cur, times(c, cc))
                if any(nxt[0]):
                    h[kk] = nxt
                else:
                    del h[kk]
    return remainder


def normal_form(f, divisors, order, budget):
    """Full remainder of a nonzero f modulo (lead, monic terms) divisors,
    e.g. a basis as buchberger returns it."""
    first = next(iter(f.values()))
    nf, element = first.field, type(first)

    def run(pk):
        pack = pk.pack
        basis = [[pack(lead), None, terms, None, None] for lead, terms in divisors]
        unpack = pk.unpack
        rem = _reduce(pk.terms(f), basis, pk, nf, budget)
        return {unpack(m): element(nf, c) for _, m, c in rem}

    return _packed(run, len(next(iter(f))), order, budget)


def buchberger(gens, order, budget):
    """Reduced, monic Groebner basis of the given nonzero generators, as a
    list of (lead monomial, monic terms) sorted ascending by key.

    Each basis element carries a sugar degree: the total degree of an input
    generator, and for a reduced S-polynomial the sugar of its pair,
    max(sugar_i + deg lcm - deg lead_i, sugar_j + deg lcm - deg lead_j).
    In lex the generators first go through _linear_first.  Each element,
    input generators included, enters through Gebauer and Moller's update,
    which queues only the pairs their criteria keep; pairs leave the queue
    by (sugar, key(lcm), i, j).  Deterministic: identical inputs produce
    identical output lists.
    """
    if not gens:
        return []
    first = next(iter(gens[0].values()))
    nf, element = first.field, type(first)

    def run(pk):
        unpack = pk.unpack
        return [
            (unpack(d[0]),
             {unpack(m): element(nf, c) for _, m, c in _divisor_terms(d)})
            for d in _buchberger(gens, pk, nf, budget, order.kind == "lex")
        ]

    return _packed(run, len(next(iter(gens[0]))), order, budget)


def _linear_first(gens, pk, nf, budget, lex):
    """(monic divisor, sugar) of each generator, in lex after the linear step.

    The generators of total degree <= 1 are brought to echelon form, every
    other one is reduced by that echelon, and the pass repeats while a
    remainder turns linear: such a remainder joins the echelon and one that
    is 0 is dropped.  A reduced generator's sugar is its total degree, which
    reduction by linear divisors never raises.
    """
    linear, other = [], []
    for terms in gens:
        triples = pk.terms(terms)
        lead = min(triples)  # the least negated key
        triples.remove(lead)
        sugar = max(map(sum, terms))
        (linear if lex and sugar <= 1 else other).append(([lead] + triples, sugar))
    unpack = pk.unpack
    echelon = []
    while linear:
        for terms, _ in linear:
            rem = _reduce(terms, echelon, pk, nf, budget)
            if rem:
                echelon.append(_monic(rem, pk, nf))
        linear, kept = [], []
        for terms, _ in other:
            rem = _reduce(terms, echelon, pk, nf, budget)
            if rem:
                degree = max(sum(unpack(m)) for _, m, _ in rem)
                (linear if degree <= 1 else kept).append((rem, degree))
        other = kept
    # A row's sugar is the degree of its lead: 1, or 0 for the constant 1.
    return ([(d, sum(unpack(d[0]))) for d in echelon]
            + [(_monic(t, pk, nf), s) for t, s in other])


def _buchberger(gens, pk, nf, budget, lex):
    start = _linear_first(gens, pk, nf, budget, lex)
    # Ascending by key; reverse=True keeps equal leads in input order.
    start.sort(key=lambda e: e[0][1], reverse=True)
    basis = [d for d, _ in start]
    leads = [d[0] for d in basis]
    unpack, guard, lcm_of, weights = pk.unpack, pk.guard, pk.lcm, pk.weights
    ecart = [s - sum(unpack(d[0])) for d, s in start]  # sugar - deg lead

    heap, live = [], []

    def update(t):
        """Gebauer and Moller's update for the new element t: drop queued
        pairs that t makes redundant, queue the pairs (i, t) with live i that
        survive the criteria, and retire the live i whose lead lead(t)
        divides.  A retired element stays a reducer."""
        lt, kt, et = leads[t], basis[t][1], ecart[t]
        # B: lead(t) divides lcm(i, j), and neither lcm(i, t) nor lcm(j, t) is it.
        kept = [q for q in heap if ((q[4] | guard) - lt) & guard != guard
                or lcm_of(leads[q[2]], lt) == q[4] or lcm_of(leads[q[3]], lt) == q[4]]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        candidates = []
        for i in live:
            li = leads[i]
            lcm = lcm_of(li, lt)
            if lcm == li + lt:  # coprime leads: the keys add
                candidates.append((-(basis[i][1] + kt), False, i, lcm, 0))
            else:
                e = unpack(lcm)
                candidates.append((-sum(map(mul, e, weights)), True, i, lcm, sum(e)))
        # By key of the lcm, coprime first at equal lcm: a kept lcm that
        # divides a later one (M and F) comes before it.
        candidates.sort()
        lcms = []
        for key, shared, i, lcm, deg in candidates:
            lg = lcm | guard
            for m in lcms:
                if (lg - m) & guard == guard:
                    break
            else:
                lcms.append(lcm)
                if shared:  # the product criterion drops coprime pairs
                    heapq.heappush(heap, (max(ecart[i], et) + deg, key, i, t, lcm))
        live[:] = [i for i in live if ((leads[i] | guard) - lt) & guard != guard]
        live.append(t)

    for t in range(len(basis)):
        update(t)

    while heap:
        s, key, i, j, lcm = heapq.heappop(heap)
        _spend(budget)
        spoly = _spoly(lcm, -key, basis[i], basis[j], guard, nf)
        rem = _reduce(spoly, basis, pk, nf, budget)
        if rem:
            d = _monic(rem, pk, nf)
            basis.append(d)
            leads.append(d[0])
            ecart.append(s - sum(unpack(d[0])))
            update(len(basis) - 1)

    return _interreduce(basis, pk, nf, budget)


def _spoly(lcm, key, di, dj, guard, nf):
    """S-polynomial of two monic divisors, as triples; their lead terms
    cancel.  key is the negated key of lcm."""
    si = lcm - di[0]
    sj = lcm - dj[0]
    if ((si + di[2]) | (sj + dj[2])) & guard:
        raise _Overflow
    ki = key - di[1]
    kj = key - dj[1]
    minus, negate = nf.pair_sub, nf.pair_neg
    spoly = {ki + k: (si + m, c) for k, m, c in di[3]}
    for k, m, c in dj[3]:
        kk = kj + k
        cur = spoly.get(kk)
        if cur is None:
            spoly[kk] = (sj + m, negate(c))
        else:
            nxt = minus(cur[1], c)
            if any(nxt[0]):
                spoly[kk] = (cur[0], nxt)
            else:
                del spoly[kk]
    return [(k, m, c) for k, (m, c) in spoly.items()]


def _interreduce(basis, pk, nf, budget):
    guard = pk.guard
    # Minimal basis: drop elements whose lead is divisible by another lead.
    basis = sorted(basis, key=itemgetter(1), reverse=True)
    kept = []
    for idx, d in enumerate(basis):
        lead = d[0]
        lg = lead | guard
        for jdx, d2 in enumerate(basis):
            l2 = d2[0]
            if jdx != idx and (lg - l2) & guard == guard and (l2 != lead or jdx < idx):
                break
        else:
            kept.append(d)
    # Tail-reduce each element against the others.  kept ascends by lead, and
    # a larger lead divides no term of an element, so the smaller ones suffice.
    out = []
    for idx, d in enumerate(kept):
        rem = _reduce(_divisor_terms(d), kept[:idx], pk, nf, budget)
        if rem:
            out.append(_monic(rem, pk, nf))
    out.sort(key=itemgetter(1), reverse=True)
    return out
