"""Sparse multivariate polynomials and rational maps over a number field.

A polynomial ring fixes a variable tuple, a monomial order and the coefficient
field; polynomials are immutable dicts exponent-tuple -> NumberFieldElement
with no stored zeros.

Substitution into a map f = (n_1/d_1, ..., n_k/d_k) goes through one power
table per map, which compose_map, MultiPoly.substitute and evaluate build once
per call and share across every polynomial they substitute:

- The table keeps the powers n_i^e and d_i^e as sparse dicts {exponent tuple:
  pair} over the field's (num, den) pairs, with no zero stored, and does its
  arithmetic with the field's pair_mul and pair_add (sparse dict arithmetic as
  in Monagan & Pearce, CASC 2007).  Each power is built from the one below it
  the first time some polynomial needs it.  A denominator equal to 1 has no
  powers, and no factor equal to 1 is multiplied in.
- A polynomial P is substituted as P(n/d) * prod_i d_i^deg_i, with deg_i the
  degree of P in variable i, by a multivariate Horner scheme (Pena & Sauer,
  SIAM J. Numer. Anal. 37, 2000): the terms of P are grouped by their
  exponent of each variable in turn, so monomials that agree in their first
  exponents share the partial product of those factors.  Coefficients are
  wrapped as elements once per output term.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

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


def _index_map(source: PolyRing, target: PolyRing):
    """{index in source: index in target} for each variable name both share."""
    index = target._var_index
    return {i: index[v] for i, v in enumerate(source.variables) if v in index}


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
        table = _PowerTable(target, [(v, None) for v in values])
        return table.poly(table.substitute(self)[0])

    def evaluate(self, point):
        """Evaluate at field elements; returns a NumberFieldElement."""
        scalars = PolyRing(self.ring.field, ())
        return self.substitute([scalars.constant(x) for x in point]).constant_value()

    def transplant(self, ring: PolyRing, var_map=None):
        """Move into another ring; variables map by name unless var_map given.

        var_map sends variable indices here to indices in ring, as
        _index_map(self.ring, ring) does; a caller moving many polynomials
        between the same two rings builds it once.  A variable used here
        that var_map does not send anywhere is an InputError.
        """
        if var_map is None:
            var_map = _index_map(self.ring, ring)
        terms = {}
        try:
            for mono, coeff in self.terms.items():
                exps = [0] * ring.nvars
                for i, e in enumerate(mono):
                    if e:
                        exps[var_map[i]] = e
                terms[tuple(exps)] = coeff
        except KeyError as exc:
            name = self.ring.variables[exc.args[0]]
            raise InputError(f"variable {name!r} missing in target ring") from None
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


def _is_one(p: MultiPoly) -> bool:
    """Whether p is the constant 1."""
    if len(p.terms) != 1:
        return False
    ((mono, c),) = p.terms.items()
    num, den = c.pair
    return den == 1 and num[0] == 1 and not any(mono) and not any(num[1:])


def _normalize_fraction(num: MultiPoly, den: MultiPoly):
    if _is_one(den):
        return num, den  # already in lowest terms, with a monic denominator
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


class _PowerTable:
    """Powers of the components n_i/d_i of one map, built on demand.

    components are (n_i, d_i) pairs of polynomials over target; d_i is None
    or the constant 1 for a polynomial component.  npow[i][e - 1] is n_i^e and
    dpow[i][e - 1] is d_i^e, as sparse pair dicts; dpow[i] is None when d_i is
    1.  The table lives for one call: nothing keeps it afterwards.
    """

    __slots__ = ("target", "one", "pair_mul", "pair_add", "constant", "npow", "dpow",
                 "mixed")

    def __init__(self, target: PolyRing, components):
        self.target = target
        self.one = target.one
        self.pair_mul = target.field.pair_mul
        self.pair_add = target.field.pair_add
        self.constant = (0,) * target.nvars
        self.npow, self.dpow = [], []
        for n, d in components:
            self.npow.append([{m: c.pair for m, c in n.terms.items()}])
            self.dpow.append(None if d is None or _is_one(d)
                             else [{m: c.pair for m, c in d.terms.items()}])
        self.mixed = {}  # (i, e, deg) -> n_i^e * d_i^(deg - e)

    def poly(self, terms) -> MultiPoly:
        """The pair dict terms as a polynomial over target; None is 1."""
        if terms is None:
            return self.one
        field = self.target.field
        return MultiPoly(self.target, {m: NumberFieldElement(field, c)
                                       for m, c in terms.items()})

    def substitute(self, P: MultiPoly):
        """(N, D) with P(n_1/d_1, ..., n_k/d_k) = N/D, as pair dicts.

        D is prod_i d_i^deg_i over the variables of P, None when that is 1.
        Two steps per unit of each deg_i are charged to the run's budget,
        before any power is built.
        """
        if len(P.terms) > 1:
            degs = tuple(map(max, *P.terms))
        else:
            degs = next(iter(P.terms), (0,) * P.ring.nvars)
        _spend(_as_budget(None), 2 * sum(degs))
        used = [i for i, deg in enumerate(degs) if deg]
        if not used:
            return {self.constant: c.pair for c in P.terms.values()}, None
        num = self._horner([(m, c.pair) for m, c in P.terms.items()], used, degs, 0)
        den = None
        for i in used:
            if self.dpow[i] is not None:
                den = self.times(den, self._power(self.dpow[i], degs[i]))
        return num, den

    def _horner(self, terms, used, degs, k):
        """sum of c * prod_{j >= k} factor(used[j]) over the (mono, c) terms,
        which agree in the exponents of used[:k]."""
        i = used[k]
        groups = {}
        for term in terms:
            groups.setdefault(term[0][i], []).append(term)
        out = {}
        last = k + 1 == len(used)
        for e, group in groups.items():
            factor = self._factor(i, e, degs[i])
            if last:
                # The terms agree in every used exponent, so there is one.
                ((_, c),) = group
                inner = {self.constant: c}
            else:
                inner = self._horner(group, used, degs, k + 1)
            self._add_product(out, factor, inner)
        return out

    def _power(self, pows, e):
        """pows[e - 1], building the missing powers of pows[0] up to e."""
        while len(pows) < e:
            pows.append(self._add_product({}, pows[-1], pows[0]))
        return pows[e - 1]

    def _factor(self, i, e, deg):
        """n_i^e * d_i^(deg - e), or None when it is 1."""
        npw = self._power(self.npow[i], e) if e else None
        dpow = self.dpow[i]
        if dpow is None or e == deg:
            return npw
        dpw = self._power(dpow, deg - e)
        if npw is None:
            return dpw
        key = (i, e, deg)
        out = self.mixed.get(key)
        if out is None:
            out = self.mixed[key] = self._add_product({}, npw, dpw)
        return out

    def times(self, a, b):
        """a * b; None is 1."""
        if a is None:
            return b
        if b is None:
            return a
        return self._add_product({}, a, b)

    def _add_into(self, out, b):
        """out + b, computed in out."""
        pair_add = self.pair_add
        for m, c in b.items():
            s = out.get(m)
            if s is not None:
                c = pair_add(s, c)
                if not any(c[0]):
                    del out[m]
                    continue
            out[m] = c
        return out

    def _add_product(self, out, a, b):
        """out + a * b, computed in out; a is None for 1."""
        if a is None:
            return self._add_into(out, b)
        pair_mul, pair_add = self.pair_mul, self.pair_add
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(add, m1, m2))
                c = pair_mul(c1, c2)
                s = out.get(m)
                if s is not None:
                    c = pair_add(s, c)
                    if not any(c[0]):
                        del out[m]
                        continue
                out[m] = c
        return out


def compose_map(g: RationalMap, f: RationalMap) -> RationalMap:
    """g after f; components by substitution and fraction normalization."""
    if g.ring.nvars != f.target_arity:
        raise InputError(
            f"cannot compose: inner map has arity {f.target_arity}, "
            f"outer map expects {g.ring.nvars} variables"
        )
    table = _PowerTable(f.ring, f.components)
    comps = []
    for gnum, gden in g.components:
        num, den = table.substitute(gnum)
        if not _is_one(gden):
            # gnum/gden at n/d: (N_num * D_den) / (D_num * N_den).
            den_num, den_den = table.substitute(gden)
            if not den_num:
                raise ZeroDenominator("denominator vanished under composition")
            num, den = table.times(num, den_den), table.times(den, den_num)
        comps.append((table.poly(num), table.poly(den)))
    return RationalMap(f.ring, comps)
