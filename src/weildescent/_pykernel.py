"""Pure-Python Buchberger kernel.

Polynomials enter as dicts exponent-tuple -> coefficient, where coefficients
are opaque field elements supporting +, -, *, inverse() and is_zero().  The
monomial order enters as its key function (MonomialOrder.key).  A basis
leaves buchberger, and divisors enter normal_form, as (lead monomial, monic
terms) pairs.  weildescent.kernel re-exports the two entry points.

- buchberger takes S-pairs in order of sugar degree (Giovini, Mora, Niesi,
  Robbiano, Traverso, "One sugar cube, please", ISSAC 1991).
- Division keeps the polynomial being reduced as a dict plus a heap of its
  monomials, so each step pops the largest term instead of scanning every
  term (Monagan & Pearce, CASC 2007).
- Each call to buchberger or normal_form computes the order key of a
  monomial at most once, in a memo that lives only as long as that call.

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
from contextlib import contextmanager
from contextvars import ContextVar
from operator import add, le, neg, sub

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


class _NegKeys(dict):
    """monomial -> its order key negated, so that heapq pops the largest
    monomial first.  Filled on first lookup; one per kernel call."""

    __slots__ = ("keyf",)

    def __init__(self, keyf):
        self.keyf = keyf

    def __missing__(self, m):
        k = self[m] = tuple(map(neg, self.keyf(m)))
        return k


def _spend(budget, amount=1):
    budget[0] -= amount
    if budget[0] < 0:
        raise ResourceLimit("reduction budget exceeded")


def _make_monic(terms, nkeys):
    """(lead monomial, monic terms): the divisor form of a nonzero polynomial."""
    lead = min(terms, key=nkeys.__getitem__)
    inv = terms[lead].inverse()
    return lead, {m: c * inv for m, c in terms.items()}


def _reduce(f, basis, nkeys, budget):
    """Remainder of f modulo a list of (lead_mono, terms_dict) monic divisors.

    h holds the terms still to reduce.  heap holds (negated key, monomial)
    for each monomial as it enters h; an entry whose monomial has since
    cancelled out of h is skipped when popped.
    """
    h = dict(f)
    heap = [(nkeys[m], m) for m in h]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = {}
    while heap:
        lead = pop(heap)[1]
        c = h.pop(lead, None)
        if c is None:
            continue
        for bm, bt in basis:
            if all(map(le, bm, lead)):
                break
        else:
            remainder[lead] = c
            continue
        _spend(budget)
        shift = tuple(map(sub, lead, bm))
        for m, cc in bt.items():
            if m == bm:
                continue  # the lead term cancels exactly
            mm = tuple(map(add, shift, m))
            cur = h.get(mm)
            if cur is None:
                h[mm] = -(c * cc)
                push(heap, (nkeys[mm], mm))
            else:
                nxt = cur - c * cc
                if nxt.is_zero():
                    del h[mm]
                else:
                    h[mm] = nxt
    return remainder


def normal_form(f, divisors, keyf, budget):
    """Full remainder of f modulo (lead, monic terms) divisors, e.g. a basis
    as buchberger returns it."""
    return _reduce(f, divisors, _NegKeys(keyf), budget)


def buchberger(gens, keyf, budget):
    """Reduced, monic Groebner basis of the given generators, as a list of
    (lead monomial, monic terms) sorted ascending by key.

    Each basis element carries a sugar degree: the total degree of an input
    generator, and for a reduced S-polynomial the sugar of its pair,
    max(sugar_i + deg lcm - deg lead_i, sugar_j + deg lcm - deg lead_j).
    Pairs leave the queue by (sugar, key(lcm), i, j), after the product and
    chain criteria.  Deterministic: identical inputs produce identical
    output lists.
    """
    nkeys = _NegKeys(keyf)
    start = [(_make_monic(terms, nkeys), max(map(sum, terms)))
             for terms in gens if terms]
    # Ascending by key; reverse=True keeps equal leads in input order.
    start.sort(key=lambda e: nkeys[e[0][0]], reverse=True)
    basis = [divisor for divisor, _ in start]
    sugar = [s for _, s in start]

    pending = set()
    heap = []

    def push_pairs(j):
        lj = basis[j][0]
        ecart_j = sugar[j] - sum(lj)
        for i in range(j):
            li = basis[i][0]
            lcm = tuple(map(max, li, lj))
            s = max(sugar[i] - sum(li), ecart_j) + sum(lcm)
            pending.add((i, j))
            heapq.heappush(heap, (s, keyf(lcm), i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        s, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        li, ti = basis[i]
        lj, tj = basis[j]
        if tuple(map(add, li, lj)) == lcm:
            continue  # product criterion
        for k, (lk, _) in enumerate(basis):
            if k != i and k != j and all(map(le, lk, lcm)):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    break  # chain criterion
        else:
            _spend(budget)
            rem = _reduce(_spoly(lcm, li, ti, lj, tj), basis, nkeys, budget)
            if rem:
                basis.append(_make_monic(rem, nkeys))
                sugar.append(s)
                push_pairs(len(basis) - 1)

    return _interreduce(basis, nkeys, budget)


def _spoly(lcm, li, ti, lj, tj):
    """S-polynomial of two monic elements; their lead terms cancel."""
    si = tuple(map(sub, lcm, li))
    sj = tuple(map(sub, lcm, lj))
    spoly = {tuple(map(add, si, m)): c for m, c in ti.items() if m != li}
    for m, c in tj.items():
        if m == lj:
            continue
        mm = tuple(map(add, sj, m))
        cur = spoly.get(mm)
        if cur is None:
            spoly[mm] = -c
        else:
            nxt = cur - c
            if nxt.is_zero():
                del spoly[mm]
            else:
                spoly[mm] = nxt
    return spoly


def _interreduce(basis, nkeys, budget):
    # Minimal basis: drop elements whose lead is divisible by another lead.
    basis = sorted(basis, key=lambda bt: nkeys[bt[0]], reverse=True)
    kept = []
    for idx, (lead, terms) in enumerate(basis):
        for jdx, (l2, _) in enumerate(basis):
            if jdx != idx and all(map(le, l2, lead)) and (l2 != lead or jdx < idx):
                break
        else:
            kept.append((lead, terms))
    # Tail-reduce each element against the others.
    out = []
    for idx, (lead, terms) in enumerate(kept):
        rem = _reduce(terms, kept[:idx] + kept[idx + 1:], nkeys, budget)
        if rem:
            out.append(_make_monic(rem, nkeys))
    out.sort(key=lambda bt: nkeys[bt[0]], reverse=True)
    return out
