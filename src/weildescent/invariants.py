"""Generators of the invariant algebra of the block-permutation group action.

The group permutes blocks of n coordinates (block sigma goes to block
tau*sigma); generators are orbit sums of monomials up to degree |group|
(the characteristic-zero Noether bound), minimized by the tag-variable
subalgebra-membership test.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import ResourceLimit
from .groebner import Ideal, normal_form
from .multipoly import MonomialOrder, MultiPoly, PolyRing

__all__ = [
    "BlockPermutationAction",
    "reynolds",
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
        return all(self.act(tau, P) == P for tau in self.group)


def reynolds(P: MultiPoly, action: BlockPermutationAction) -> MultiPoly:
    """Average of P over the group action; fixes invariants."""
    total = action.ring.zero
    for tau in action.group:
        total = total + action.act(tau, P)
    m = action.group.order
    return total.scale(action.ring.field.rational(1) / m)


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
    """
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
            orbit = {action.act_on_monomial(tau, exps) for tau in action.group}
            seen.update(orbit)
            rep = max(orbit)
            by_rep.append((rep, orbit))
        by_rep.sort(key=lambda t: t[0])
        for _, orbit in by_rep:
            raw.append(MultiPoly(action.ring, {m: one for m in orbit}))
    return minimize_generators(raw, action, budget=budget)


def minimize_generators(gens, action: BlockPermutationAction, budget=None):
    """Greedily drop generators lying in the subalgebra of the others.

    Membership via the tag-ideal test: with T_k - E_k for the other
    generators and an order eliminating the action variables, the candidate is
    a member iff its normal form contains only tag variables.  Candidates are
    tried highest degree first (reverse canonical order within a degree), so
    power-sum-style redundancies are removed in favor of products of
    lower-degree generators.
    """
    current = list(gens)
    order = sorted(
        range(len(current)),
        key=lambda i: (current[i].total_degree(), max(current[i].terms)),
        reverse=True,
    )
    # For homogeneous inputs (the orbit sums always are) membership is a
    # graded question: a degree-d element lies in the subalgebra of the others
    # iff it is a linear combination of degree-d products of them.  That is
    # decided by exact linear algebra, far cheaper than the elimination test.
    homogeneous = all(_is_homogeneous(g) for g in current)
    removed = set()
    for idx in order:
        candidate = current[idx]
        others = [current[j] for j in range(len(current)) if j != idx and j not in removed]
        if not others:
            continue
        if homogeneous:
            member = _in_span_graded(candidate, others)
        else:
            member = _in_subalgebra(candidate, others, action, budget)
        if member:
            removed.add(idx)
    return [current[i] for i in range(len(current)) if i not in removed]


def _is_homogeneous(p):
    degs = {sum(m) for m in p.terms}
    return len(degs) <= 1


def _echelon_reduce(vec, echelon):
    """Reduce a monomial->coefficient dict against pivoted rows in place."""
    vec = dict(vec)
    for pivot, row in echelon:
        c = vec.get(pivot)
        if c is None:
            continue
        for m, rc in row.items():
            cur = vec.get(m)
            nxt = -(c * rc) if cur is None else cur - c * rc
            if nxt.is_zero():
                vec.pop(m, None)
            else:
                vec[m] = nxt
    return vec


def _in_span_graded(candidate, others):
    """Is the homogeneous candidate a linear combination of same-degree
    products of the other generators?  Exact Gaussian elimination."""
    d = candidate.total_degree()
    products = []
    _degree_products(others, 0, d, candidate.ring.one, products)
    echelon = []
    for p in products:
        vec = _echelon_reduce(p.terms, echelon)
        if not vec:
            continue
        pivot = max(vec)
        inv = vec[pivot].inverse()
        row = {m: c * inv for m, c in vec.items()}
        echelon.append((pivot, row))
        echelon.sort(key=lambda t: t[0], reverse=True)
    return not _echelon_reduce(candidate.terms, echelon)


def _degree_products(gens, start, remaining, acc, out):
    """All products of gens[start:] (with repetition) of total degree
    `remaining`, times the accumulated factor."""
    if remaining == 0:
        if acc.total_degree() > 0:
            out.append(acc)
        return
    for k in range(start, len(gens)):
        dg = gens[k].total_degree()
        if 0 < dg <= remaining:
            _degree_products(gens, k, remaining - dg, acc * gens[k], out)


def _in_subalgebra(candidate, gens, action, budget=None):
    ring = action.ring
    ny = ring.nvars
    tags = tuple(f"_T{k}" for k in range(len(gens)))
    big = PolyRing(
        ring.field, ring.variables + tags, MonomialOrder("block", split=ny)
    )
    relations = []
    for tag, g in zip(tags, gens):
        relations.append(big.var(tag) - g.transplant(big))
    ideal = Ideal(big, relations)
    gb = ideal.groebner_basis(budget=budget)
    nf = normal_form(candidate.transplant(big), gb, budget=budget)
    return all(not nf.uses_variable(i) for i in range(ny))
