"""Generators of the invariant algebra of the block-permutation group action.

The group permutes blocks of n coordinates (block sigma goes to block
tau*sigma); generators are orbit sums of monomials up to degree |group|
(the characteristic-zero Noether bound).  The orbit sums are minimized
degree by degree with exact linear algebra: an orbit sum is dropped when it is
a linear combination of products of the generators kept before it.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from ._pykernel import _as_budget, _run, _spend
from .errors import InputError, ResourceLimit
from .multipoly import MonomialOrder, MultiPoly, PolyRing

__all__ = [
    "BlockPermutationAction",
    "generate_invariants",
    "minimize_generators",
]

# Guard on the orbit-sum enumeration (number of monomials considered).
MAX_MONOMIALS = 2_000_000


class BlockPermutationAction:
    """The permutation action on prod_sigma C^n moving block sigma to tau*sigma."""

    __slots__ = ("group", "block_size", "ring", "var_names", "_perms")

    def __init__(self, group, block_size, var_names=None, field=None):
        self.group = group
        self.block_size = block_size
        if var_names is None:
            var_names = [f"y{i + 1}" for i in range(block_size)]
        if len(var_names) != block_size:
            raise ValueError("need one base name per block coordinate")
        self.var_names = tuple(var_names)
        field = field or group.field
        names = []
        for j in range(group.order):
            for name in var_names:
                names.append(name if j == group.identity_index else f"{name}@{j}")
        self.ring = PolyRing(field, names, MonomialOrder("grevlex"))
        # Position of (sigma_j, i) in the ambient variable tuple.
        def pos(j, i):
            return j * block_size + i

        perms = []
        for tau in range(group.order):
            perm = [0] * self.ring.nvars
            for j in range(group.order):
                tj = group.compose(tau, j)
                for i in range(block_size):
                    # variable y_{sigma_j, i} is replaced by y_{tau*sigma_j, i}
                    perm[pos(j, i)] = pos(tj, i)
            perms.append(tuple(perm))
        self._perms = tuple(perms)

    def variable_index(self, sigma, i):
        return sigma * self.block_size + i

    def act_on_monomial(self, tau, exps):
        perm = self._perms[tau]
        out = [0] * len(exps)
        for src, e in enumerate(exps):
            if e:
                out[perm[src]] = e
        return tuple(out)

    def act(self, tau, P: MultiPoly) -> MultiPoly:
        """P composed with the coordinate permutation of tau."""
        return MultiPoly(
            self.ring,
            {self.act_on_monomial(tau, m): c for m, c in P.terms.items()},
        )

    def is_invariant(self, P: MultiPoly) -> bool:
        return all(self.act(tau, P) == P for tau in self.group.nontrivial)


def _monomials_of_degree(nvars, degree):
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def _count_monomials(nvars, max_degree):
    total = 0
    binom = 1
    for d in range(1, max_degree + 1):
        binom = binom * (nvars + d - 1) // d
        total += binom
    return total


def generate_invariants(action: BlockPermutationAction, budget=None):
    """Minimal orbit-sum generators of the invariant algebra.

    Orbit sums of all monomials of total degree <= |group| (integer
    coefficients, not divided by orbit size), deduplicated by canonical orbit
    representative, sorted by (degree, representative), then minimized.
    Each orbit sum, product and echelon row subtraction spends one step of
    the budget.
    """
    budget = _as_budget(budget)
    nvars = action.ring.nvars
    bound = action.group.order
    if _count_monomials(nvars, bound) > MAX_MONOMIALS:
        raise ResourceLimit(
            f"orbit-sum enumeration too large ({nvars} variables, degree {bound})"
        )
    one = action.ring.field.one
    raw = []
    for degree in range(1, bound + 1):
        seen = set()
        by_rep = []
        for exps in _monomials_of_degree(nvars, degree):
            if exps in seen:
                continue
            _spend(budget)
            orbit = {action.act_on_monomial(tau, exps) for tau in action.group}
            seen.update(orbit)
            rep = max(orbit)
            by_rep.append((rep, orbit))
        by_rep.sort(key=lambda t: t[0])
        for _, orbit in by_rep:
            raw.append(MultiPoly(action.ring, {m: one for m in orbit}))
    with _run(budget):
        return minimize_generators(raw)


def minimize_generators(gens):
    """Keep each generator that is not in the subalgebra of those kept before it.

    The generators must be homogeneous.  They are taken in canonical order,
    by (degree, largest monomial).  A degree-d generator lies in the
    subalgebra of the kept ones iff it is a linear combination of degree-d
    products of them, so each degree needs one exact echelon: it starts from
    the products of the kept lower-degree generators and takes in each kept
    generator of degree d.  The kept generators are returned in input order.
    The products and row subtractions draw from the active run's budget.
    """
    budget = _as_budget(None)
    if any(len({sum(m) for m in g.terms}) > 1 for g in gens):
        raise InputError("minimize_generators needs homogeneous generators")
    order = sorted(
        range(len(gens)), key=lambda i: (gens[i].total_degree(), max(gens[i].terms))
    )
    kept = []
    degree = None
    for i in order:
        d = gens[i].total_degree()
        if d != degree:
            degree, echelon = d, []
            products = []
            _degree_products([gens[k] for k in kept], 0, d, gens[i].ring.one,
                             products, budget)
            for p in products:
                _in_span_graded(p.terms, echelon, budget)
        if not _in_span_graded(gens[i].terms, echelon, budget):
            kept.append(i)
    return [gens[i] for i in sorted(kept)]


def _echelon_reduce(vec, echelon, budget):
    """Reduce a monomial->coefficient dict against pivoted rows in place."""
    vec = dict(vec)
    for pivot, row in echelon:
        c = vec.get(pivot)
        if c is None:
            continue
        _spend(budget)
        for m, rc in row.items():
            cur = vec.get(m)
            nxt = -(c * rc) if cur is None else cur - c * rc
            if nxt.is_zero():
                vec.pop(m, None)
            else:
                vec[m] = nxt
    return vec


def _in_span_graded(vec, echelon, budget):
    """Is the monomial->coefficient dict in the span of the echelon rows?
    If not, its reduced form joins them as a new monic row.  Exact."""
    vec = _echelon_reduce(vec, echelon, budget)
    if not vec:
        return True
    pivot = max(vec)
    inv = vec[pivot].inverse()
    echelon.append((pivot, {m: c * inv for m, c in vec.items()}))
    echelon.sort(key=lambda t: t[0], reverse=True)
    return False


def _degree_products(gens, start, remaining, acc, out, budget):
    """All products of gens[start:] (with repetition) of total degree
    `remaining`, times the accumulated factor; each product spends a step."""
    if remaining == 0:
        if acc.total_degree() > 0:
            out.append(acc)
        return
    for k in range(start, len(gens)):
        dg = gens[k].total_degree()
        if 0 < dg <= remaining:
            _spend(budget)
            _degree_products(gens, k, remaining - dg, acc * gens[k], out, budget)
