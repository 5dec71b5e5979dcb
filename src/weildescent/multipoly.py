"""Sparse multivariate polynomials and rational maps over a number field.

A polynomial ring fixes a variable tuple, a monomial order and the coefficient
field; polynomials are immutable dicts exponent-tuple -> NumberFieldElement
with no stored zeros.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel
from ._pykernel import _as_budget, _spend
from .errors import InputError, ZeroDenominator
from .numberfield import NumberField, NumberFieldElement

__all__ = [
    "MonomialOrder",
    "PolyRing",
    "MultiPoly",
    "RationalMap",
    "poly_trace",
    "compose_map",
    "identity_map",
]


class MonomialOrder:
    """lex, grevlex, or a two-block elimination order (grevlex in each block).

    A block order with split k eliminates the first k ring variables: any
    monomial involving them is larger than any monomial free of them.
    """

    __slots__ = ("kind", "split", "key")

    def __init__(self, kind="grevlex", split=None):
        if kind not in ("lex", "grevlex", "block"):
            raise InputError(f"unknown monomial order {kind!r}")
        if (kind == "block") != (split is not None):
            raise InputError("block orders need a split point; others must not have one")
        self.kind = kind
        self.split = split
        # key(exps) is a tuple that sorts monomials ascending in this order;
        # keys add componentwise under monomial multiplication.  The block
        # key is written out in full: the graph basis, saturation and _lcm
        # all run in block orders.
        if kind == "lex":
            self.key = lambda e: e
        elif kind == "grevlex":
            self.key = lambda e: (sum(e),) + tuple(-x for x in reversed(e))
        else:
            def block_key(e, k=split):
                hi, lo = e[:k], e[k:]
                return (
                    (sum(hi),) + tuple(-x for x in reversed(hi))
                    + (sum(lo),) + tuple(-x for x in reversed(lo))
                )
            self.key = block_key

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.split == other.split
        )

    def __hash__(self):
        return hash((self.kind, self.split))

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', split={self.split})"
        return f"MonomialOrder({self.kind!r})"


class PolyRing:
    __slots__ = ("field", "variables", "order", "_var_index")

    def __init__(self, field: NumberField, variables, order=None):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise InputError("duplicate variable names")
        self.order = order or MonomialOrder("grevlex")
        self._var_index = {v: i for i, v in enumerate(self.variables)}

    @property
    def nvars(self):
        return len(self.variables)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"PolyRing({list(self.variables)}, {self.order!r})"

    def with_order(self, order):
        return PolyRing(self.field, self.variables, order)

    # -- constructors ----------------------------------------------------------

    @property
    def zero(self):
        return MultiPoly(self, {})

    @property
    def one(self):
        return self.constant(1)

    def constant(self, c) -> "MultiPoly":
        if not isinstance(c, NumberFieldElement):
            c = self.field.rational(c)
        if c.is_zero():
            return self.zero
        return MultiPoly(self, {(0,) * self.nvars: c})

    def var(self, name_or_index) -> "MultiPoly":
        if isinstance(name_or_index, str):
            if name_or_index not in self._var_index:
                raise InputError(f"no variable {name_or_index!r} in ring")
            i = self._var_index[name_or_index]
        else:
            i = name_or_index
        exps = [0] * self.nvars
        exps[i] = 1
        return MultiPoly(self, {tuple(exps): self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


class MultiPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic queries ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> NumberFieldElement:
        if self.is_zero():
            return self.ring.field.zero
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def uses_variable(self, i):
        return any(m[i] for m in self.terms)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = self.ring.order.key
        mono = max(self.terms, key=key)
        return mono, self.terms[mono]

    def sorted_terms(self):
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def has_rational_coefficients(self):
        return all(c.is_rational() for c in self.terms.values())

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise InputError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        terms = dict(self.terms)
        for m, c in o.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = s
        return MultiPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise InputError("negative polynomial power")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c: NumberFieldElement):
        if not isinstance(c, NumberFieldElement):
            c = self.ring.field.rational(c)
        if c.is_zero():
            return self.ring.zero
        return MultiPoly(self.ring, {m: x * c for m, x in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            other = self.ring.constant(other)
        return (
            isinstance(other, MultiPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- substitution / transport -------------------------------------------------

    def substitute(self, values):
        """Evaluate at a list of polynomials (one per ring variable)."""
        target = values[0].ring if values else self.ring
        ones = [target.one] * len(values)
        return _substitute_fraction(self, values, ones, target)[0]

    def evaluate(self, point):
        """Evaluate at field elements; returns a NumberFieldElement."""
        scalars = PolyRing(self.ring.field, ())
        return self.substitute([scalars.constant(x) for x in point]).constant_value()

    def transplant(self, ring: PolyRing, var_map=None):
        """Move into another ring; variables map by name unless var_map given."""
        if var_map is None:
            var_map = {}
            for i, name in enumerate(self.ring.variables):
                if self.uses_variable(i):
                    if name not in ring._var_index:
                        raise InputError(f"variable {name!r} missing in target ring")
                    var_map[i] = ring._var_index[name]
                elif name in ring._var_index:
                    var_map[i] = ring._var_index[name]
        terms = {}
        for mono, coeff in self.terms.items():
            exps = [0] * ring.nvars
            for i, e in enumerate(mono):
                if e:
                    exps[var_map[i]] = e
            terms[tuple(exps)] = coeff
        return MultiPoly(ring, terms)

    # -- Galois action --------------------------------------------------------------

    def sigma(self, group, i):
        return MultiPoly(
            self.ring, {m: group.apply(i, c) for m, c in self.terms.items()}
        )

    # -- printing ---------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = str(coeff)
            compound = (" + " in cs) or (" - " in cs)
            if not factors:
                parts.append(f"({cs})" if compound else cs)
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            elif compound:
                parts.append(f"({cs})*" + "*".join(factors))
            else:
                parts.append(f"{cs}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"<{self}>"


def poly_trace(P: MultiPoly, group) -> MultiPoly:
    """Tr(P) = sum over the group of P^sigma; coefficients land in Q."""
    out = P.ring.zero
    for i in group:
        out = out + P.sigma(group, i)
    return out


# -- rational maps ------------------------------------------------------------------


def _divide_monomial(p: MultiPoly, mono):
    return MultiPoly(
        p.ring,
        {tuple(a - b for a, b in zip(m, mono)): c for m, c in p.terms.items()},
    )


def _poly_divides_exact(p: MultiPoly, d: MultiPoly):
    """Quotient p / d for a nonzero divisor d of p.

    Single-divisor reduction: as p is a multiple of d, the leading term of
    the running remainder is always divisible by the leading term of d.
    """
    ring = p.ring
    dm, dc = d.leading_term()
    dc_inv = dc.inverse()
    rem = p
    quo = ring.zero
    while not rem.is_zero():
        rm, rc = rem.leading_term()
        shift = MultiPoly(
            ring, {tuple(a - b for a, b in zip(rm, dm)): rc * dc_inv}
        )
        quo = quo + shift
        rem = rem - shift * d
    return quo


def _lcm(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Least common multiple of two nonzero polynomials, up to a scalar.

    lcm(p, q) generates the principal ideal <t*p, (1 - t)*q> intersected
    with L[x] (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
    Ch. 4 Sec. 3), so the reduced basis of <t*p, (1 - t)*q> in a block
    order eliminating t has exactly one element free of t.
    """
    gens = [
        {(1,) + m: c for m, c in p.terms.items()},
        {(0,) + m: c for m, c in q.terms.items()}
        | {(1,) + m: -c for m, c in q.terms.items()},
    ]
    basis = kernel.buchberger(
        gens, MonomialOrder("block", split=1), _as_budget(None)
    )
    (terms,) = [terms for lead, terms in basis if not lead[0]]
    return MultiPoly(p.ring, {m[1:]: c for m, c in terms.items()})


class RationalMap:
    """A tuple of numerator/denominator pairs from one affine space to another.

    Unless built with normalize=False, each component is kept in lowest
    terms, in any number of variables, with a monic denominator.
    """

    __slots__ = ("ring", "components")

    def __init__(self, ring: PolyRing, components, normalize=True):
        comps = []
        for comp in components:
            if isinstance(comp, MultiPoly):
                num, den = comp, ring.one
            else:
                num, den = comp
            if num.ring != ring or den.ring != ring:
                raise InputError("map components must live in the source ring")
            if den.is_zero():
                raise ZeroDenominator("zero denominator in rational map component")
            if normalize:
                num, den = _normalize_fraction(num, den)
            comps.append((num, den))
        self.ring = ring
        self.components = tuple(comps)

    @property
    def target_arity(self):
        return len(self.components)

    def numerators(self):
        return [num for num, _ in self.components]

    def denominators(self):
        return [den for _, den in self.components]

    def sigma(self, group, i):
        return RationalMap(
            self.ring,
            [(num.sigma(group, i), den.sigma(group, i)) for num, den in self.components],
            normalize=False,
        )

    def __eq__(self, other):
        # Syntactic equality of normalized components only; equality as maps
        # on a variety is decided modulo its ideal elsewhere.
        return (
            isinstance(other, RationalMap)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ring, self.components))

    def __repr__(self):
        comps = ", ".join(
            str(num) if den == self.ring.one else f"({num})/({den})"
            for num, den in self.components
        )
        return f"RationalMap[{comps}]"


def _normalize_fraction(num: MultiPoly, den: MultiPoly):
    ring = num.ring
    if num.is_zero():
        return ring.zero, ring.one
    # Common monomial content.
    common = tuple(map(min, *num.terms, *den.terms))
    if any(common):
        num = _divide_monomial(num, common)
        den = _divide_monomial(den, common)
    # Common polynomial factor: num/den = (lcm/den)/(lcm/num).
    if den.total_degree() > 0 and num.total_degree() > 0:
        lcm = _lcm(num, den)
        num, den = _poly_divides_exact(lcm, den), _poly_divides_exact(lcm, num)
    # Scalar content: make the denominator monic.
    _, lc = den.leading_term()
    if lc != 1:
        inv = lc.inverse()
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def identity_map(ring: PolyRing) -> RationalMap:
    return RationalMap(ring, [(v, ring.one) for v in ring.gens()], normalize=False)


def _substitute_fraction(P: MultiPoly, numerators, denominators, target: PolyRing):
    """P(n1/d1, ..., nk/dk) as a (numerator, denominator) pair over target.

    The powers of each numerator and denominator are charged to the run's
    budget, one step each, before any is built.  No power of a denominator
    equal to 1 is built, and no factor equal to 1 is multiplied in.
    """
    degs = [max(P.degree_in(i), 0) for i in range(P.ring.nvars)]
    _spend(_as_budget(None), 2 * sum(degs))
    one = target.one
    # factors[i][e]: the factors other than 1 of n_i^e * d_i^(deg_i - e).
    factors = []
    full_den = None
    for i, deg in enumerate(degs):
        fs = [[]]
        if deg:
            n, d = numerators[i], denominators[i]
            npw = [n]  # npw[k] = n^(k+1)
            for _ in range(deg - 1):
                npw.append(npw[-1] * n)
            fs += [[p] for p in npw]
            if d != one:
                dpw = [d]
                for _ in range(deg - 1):
                    dpw.append(dpw[-1] * d)
                for e in range(deg):
                    fs[e].append(dpw[deg - e - 1])
                full_den = dpw[-1] if full_den is None else full_den * dpw[-1]
        factors.append(fs)
    out = {}
    constant = {(0,) * target.nvars: target.field.one}
    for mono, coeff in P.sorted_terms():
        term = None
        for fs, e in zip(factors, mono):
            for p in fs[e]:
                term = p if term is None else term * p
        for m, c in (constant if term is None else term.terms).items():
            c = coeff * c
            s = out.get(m)
            if s is not None:
                c = s + c
            if c.is_zero():
                del out[m]
            else:
                out[m] = c
    return MultiPoly(target, out), one if full_den is None else full_den


def compose_map(g: RationalMap, f: RationalMap) -> RationalMap:
    """g after f; components by substitution and fraction normalization."""
    if g.ring.nvars != f.target_arity:
        raise InputError(
            f"cannot compose: inner map has arity {f.target_arity}, "
            f"outer map expects {g.ring.nvars} variables"
        )
    target = f.ring
    nums = [num for num, _ in f.components]
    dens = [den for _, den in f.components]
    comps = []
    for gnum, gden in g.components:
        nn, nd = _substitute_fraction(gnum, nums, dens, target)
        dn, dd = _substitute_fraction(gden, nums, dens, target)
        num = nn * dd
        den = nd * dn
        if den.is_zero():
            raise ZeroDenominator("denominator vanished under composition")
        comps.append((num, den))
    return RationalMap(target, comps)
