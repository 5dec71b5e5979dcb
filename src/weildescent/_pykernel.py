"""Pure-Python Buchberger kernel.

Polynomials enter as dicts exponent-tuple -> coefficient, where coefficients
are opaque field elements supporting +, -, *, inverse() and is_zero().  The
monomial order enters as its key function (MonomialOrder.key).  A basis
leaves buchberger, and divisors enter normal_form, as (lead monomial, monic
terms) pairs.  weildescent.kernel re-exports the two entry points.

The budget is a single-element list of remaining reduction steps, decremented
in place so one cap can span a whole pipeline.
"""

import heapq

from .errors import ResourceLimit

IMPL = "python"


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _spend(budget, amount=1):
    budget[0] -= amount
    if budget[0] < 0:
        raise ResourceLimit("reduction budget exceeded")


def _make_monic(terms, keyf):
    """(lead monomial, monic terms): the divisor form of a nonzero polynomial."""
    lead = max(terms, key=keyf)
    inv = terms[lead].inverse()
    return lead, {m: c * inv for m, c in terms.items()}


def _reduce(f, basis, keyf, budget):
    """Remainder of f modulo a list of (lead_mono, terms_dict) monic divisors."""
    h = dict(f)
    remainder = {}
    while h:
        lead = max(h, key=keyf)
        hit = None
        for bm, bt in basis:
            if _divides(bm, lead):
                hit = (bm, bt)
                break
        if hit is None:
            remainder[lead] = h.pop(lead)
            continue
        _spend(budget)
        bm, bt = hit
        shift = _mono_sub(lead, bm)
        c = h[lead]
        for m, cc in bt.items():
            mm = _mono_mul(shift, m)
            cur = h.get(mm)
            nxt = (c * cc).__neg__() if cur is None else cur - c * cc
            if nxt.is_zero():
                h.pop(mm, None)
            else:
                h[mm] = nxt
    return remainder


def normal_form(f, divisors, keyf, budget):
    """Full remainder of f modulo (lead, monic terms) divisors, e.g. a basis
    as buchberger returns it."""
    return _reduce(f, divisors, keyf, budget)


def buchberger(gens, keyf, budget):
    """Reduced, monic Groebner basis of the given generators, as a list of
    (lead monomial, monic terms) sorted by lead.

    Degree-ordered pair queue with the product and chain criteria.
    Deterministic: identical inputs produce identical output lists.
    """
    basis = [_make_monic(terms, keyf) for terms in gens if terms]
    basis.sort(key=lambda bt: keyf(bt[0]))

    pending = set()
    heap = []

    def push_pairs(j):
        lj = basis[j][0]
        for i in range(j):
            li = basis[i][0]
            lcm = _mono_lcm(li, lj)
            pending.add((i, j))
            heapq.heappush(heap, (sum(lcm), keyf(lcm), i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        li, ti = basis[i]
        lj, tj = basis[j]
        if _mono_mul(li, lj) == lcm:
            continue  # product criterion
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if _divides(basis[k][0], lcm):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue  # chain criterion
        _spend(budget)
        # s-polynomial of two monic elements
        spoly = {}
        for m, c in ti.items():
            spoly[_mono_mul(_mono_sub(lcm, li), m)] = c
        for m, c in tj.items():
            mm = _mono_mul(_mono_sub(lcm, lj), m)
            cur = spoly.get(mm)
            nxt = -c if cur is None else cur - c
            if nxt.is_zero():
                spoly.pop(mm, None)
            else:
                spoly[mm] = nxt
        rem = _reduce(spoly, basis, keyf, budget)
        if rem:
            basis.append(_make_monic(rem, keyf))
            push_pairs(len(basis) - 1)

    return _interreduce(basis, keyf, budget)


def _interreduce(basis, keyf, budget):
    # Minimal basis: drop elements whose lead is divisible by another lead.
    basis = sorted(basis, key=lambda bt: keyf(bt[0]))
    kept = []
    for idx, (lead, terms) in enumerate(basis):
        redundant = False
        for jdx, (l2, _) in enumerate(basis):
            if jdx == idx:
                continue
            if _divides(l2, lead) and (l2 != lead or jdx < idx):
                redundant = True
                break
        if not redundant:
            kept.append((lead, terms))
    # Tail-reduce each element against the others.
    out = []
    for idx, (lead, terms) in enumerate(kept):
        others = [kept[j] for j in range(len(kept)) if j != idx]
        rem = _reduce(terms, others, keyf, budget)
        if rem:
            out.append(_make_monic(rem, keyf))
    out.sort(key=lambda bt: keyf(bt[0]))
    return out
