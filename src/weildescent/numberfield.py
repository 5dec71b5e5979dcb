"""Exact arithmetic in a Galois number field L = Q(alpha).

An element is its coordinate vector in the power basis 1, alpha, ...,
alpha^(m-1), stored as one pair (num, den): m integer numerators over one
positive integer denominator, in lowest terms: gcd(den, *num) == 1 (Cohen,
*A Course in Computational Algebraic Number Theory*, section 4.2).  Equal
elements thus have equal pairs, and arithmetic is on Python ints; Fractions
appear only where coordinates enter or leave an element.  Each field has one
arithmetic on these pairs, closed forms in degree 2 and loops over the
multiplication table in every other degree.  Element operators pass it their
pairs and wrap the pair it returns, and the Groebner kernel calls it on the
pairs it reads off its coefficients.  The Galois group is given
by the images of alpha under each automorphism; the base field K is always Q,
represented implicitly as the fixed field of the group.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, isqrt, lcm

from ._pykernel import _as_budget, _spend
from .errors import InputError, SingularBasis, ZeroDenominator

__all__ = [
    "NumberField",
    "NumberFieldElement",
    "GaloisGroup",
    "BasisMatrix",
    "basis_matrix",
    "solve_trace_coefficients",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"cannot interpret {x!r} as a rational number")


def _poly_is_irreducible(coeffs):
    """Whether the monic f = sum coeffs[k]*t^k over Q is irreducible.

    coeffs are Fractions, low to high.  The test is exact (Berlekamp and
    Zassenhaus; von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 14-15):

    1. g(t) = d^m f(t/d), with d the lcm of the denominators, is a monic
       integer polynomial that factors exactly as f does.
    2. If gcd(g, g') over Q is not constant, g is reducible.
    3. For up to five odd primes p with g mod p squarefree, a distinct-degree
       factorisation gives the degrees of the irreducible factors mod p.  A
       factor of g over Q has a degree that is a subset sum of them at every
       p; if only 0 and m are left, g is irreducible.
    4. Otherwise the factors mod the prime with the fewest of them are split
       (Cantor-Zassenhaus) and Hensel-lifted to p^k > 2 * 2^m * ||g||_2, the
       bound of Mignotte on the coefficients of a factor.  Each product of at
       most r/2 of the r lifted factors whose degree survived step 3 is
       reduced to the symmetric range and tried as an exact divisor of g in
       Z[t]; g is irreducible if none divides it.  Each subset of lifted
       factors spends one step of the active run's budget.
    """
    m = len(coeffs) - 1
    if m == 1:
        return True
    d = lcm(*(c.denominator for c in coeffs))
    g = [int(c * d ** (m - k)) for k, c in enumerate(coeffs)]
    if not _rational_coprime(g, [k * c for k, c in enumerate(g)][1:]):
        return False
    squarefree = (p for p in _odd_primes()
                  if len(_gcd(g, _derivative(g, p), p)) == 1)
    allowed, best = None, None
    for p in islice(squarefree, 5):
        parts = _distinct_degree([c % p for c in g], p)
        degrees = [e for f, e in parts for _ in range((len(f) - 1) // e)]
        sums = {0}
        for e in degrees:
            sums |= {s + e for s in sums}
        allowed = sums if allowed is None else allowed & sums
        if allowed == {0, m}:
            return True
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), p, parts)
    r, p, parts = best
    rng = random.Random(0)
    factors = [u for f, e in parts for u in _equal_degree(f, e, p, rng)]
    M = p
    while M * M <= 4 ** (m + 1) * sum(c * c for c in g):
        M *= M
    lifted = _hensel_lift(g, factors, p, M)
    budget = _as_budget(None)
    for size in range(1, r // 2 + 1):
        for subset in combinations(lifted, size):
            _spend(budget)
            if sum(len(u) - 1 for u in subset) not in allowed:
                continue
            h = [1]
            for u in subset:
                h = _mul(h, u, M)
            if _divides([c - M if c > M // 2 else c for c in h], g):
                return False
    return True


# Polynomials in the irreducibility test are lists of ints, low to high, with
# no zero leading entry (the zero polynomial is []); m is the modulus.


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _trim([c % m for c in out])


def _sub(a, b, m):
    return _add(a, [-c for c in b], m)


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _divmod(a, b, m):
    """Quotient and remainder of a by b mod m; the lead of b is a unit mod m."""
    r = [c % m for c in a]
    n = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(r) - n, 0)
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] * inv % m
        if c:
            q[k] = c
            for j in range(n):
                r[k + j] = (r[k + j] - c * b[j]) % m
    return _trim(q), _trim(r[:n])


def _powmod(a, e, f, p):
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), f, p)[1]
        a = _divmod(_mul(a, a, p), f, p)[1]
        e >>= 1
    return out


def _gcd(a, b, p):
    """The monic gcd of a and b mod the prime p; a is nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _derivative(a, p):
    return _trim([k * c % p for k, c in enumerate(a)][1:])


def _rational_coprime(a, b):
    """Whether the integer polynomials a and b have a constant gcd over Q."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] -= c * y
            _trim(a)
        a, b = b, a
    return len(a) == 1


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _distinct_degree(f, p):
    """(product of the factors of degree e, e) for squarefree monic f mod p."""
    parts = []
    x = h = [0, 1]
    e = 0
    while 2 * (e + 1) <= len(f) - 1:
        e += 1
        h = _powmod(h, p, f, p)
        u = _gcd(f, _sub(h, x, p), p)
        if len(u) > 1:
            parts.append((u, e))
            f = _divmod(f, u, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        parts.append((f, len(f) - 1))
    return parts


def _equal_degree(f, e, p, rng):
    """The monic irreducible factors mod p of f, all of degree e."""
    n = len(f) - 1
    if n == e:
        return [f]
    power = (p ** e - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        u = _gcd(f, _add(_powmod(a, power, f, p), [-1], p), p)
        if 1 < len(u) <= n:
            v = _divmod(f, u, p)[0]
            return _equal_degree(u, e, p, rng) + _equal_degree(v, e, p, rng)


def _bezout(a, b, p):
    """s, t with s*a + t*b = 1 mod p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_lift(g, factors, p, M):
    """Monic lifts mod M = p^(2^j) of the factors of g mod p, whose product
    is g mod M.

    factors are monic, pairwise coprime and at least two.  Each is split off
    the product of the rest in turn by quadratic Hensel steps (von zur
    Gathen & Gerhard, Algorithm 15.10), so all lifts reach the same M.
    """
    lifts = []
    f = g
    for k, u in enumerate(factors[:-1]):
        v = [1]
        for w in factors[k + 1:]:
            v = _mul(v, w, p)
        s, t = _bezout(u, v, p)
        n = p
        while n < M:
            n *= n
            e = _sub(f, _mul(u, v, n), n)
            q, r = _divmod(_mul(s, e, n), v, n)
            u = _add(u, _add(_mul(t, e, n), _mul(q, u, n), n), n)
            v = _add(v, r, n)
            b = _add(_add(_mul(s, u, n), _mul(t, v, n), n), [-1], n)
            c, r = _divmod(_mul(s, b, n), v, n)
            s = _sub(s, r, n)
            t = _sub(t, _add(_mul(t, b, n), _mul(c, u, n), n), n)
        lifts.append(u)
        f = v
    return lifts + [f]


def _divides(h, g):
    """Whether the monic integer polynomial h divides g in Z[t]."""
    r = list(g)
    n = len(h) - 1
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n]
        if c:
            for j in range(n):
                r[k + j] -= c * h[j]
    return not any(r[:n])


# Pair arithmetic.  A pair is (num, den), an element's one stored form: a
# tuple of m ints over one positive int, in lowest terms.  Each NumberField
# builds one set of functions on pairs, mul, add, sub, neg and inv, when it is
# constructed; its elements and the Groebner kernel both call them.  They
# close over the ints of the multiplication table, never over the field.


def _lowest(num, den):
    """The pair num/den, den > 0, with the common gcd divided out."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(v // g for v in num)
            den //= g
    return num, den


def _quadratic_arithmetic(r0, r1, t):
    """Pair arithmetic of a quadratic field with alpha^2 = (r0 + r1*alpha)/t."""

    def mul(a, b):
        (x0, x1), da = a
        (y0, y1), db = b
        den = da * db
        if not (x1 or y1):  # both rational
            n0 = x0 * y0
            if den != 1:
                g = gcd(n0, den)
                if g != 1:
                    n0 //= g
                    den //= g
            return (n0, 0), den
        n0, n1 = x0 * y0, x0 * y1 + x1 * y0
        p = x1 * y1
        if p:
            if t != 1:
                n0, n1, den = n0 * t, n1 * t, den * t
            n0 += p * r0
            n1 += p * r1
        if den != 1:
            g = gcd(den, n0, n1)
            if g != 1:
                n0 //= g
                n1 //= g
                den //= g
        return (n0, n1), den

    def add(a, b):
        (x0, x1), da = a
        (y0, y1), db = b
        if da == db:
            n0, n1, den = x0 + y0, x1 + y1, da
        else:
            n0, n1, den = x0 * db + y0 * da, x1 * db + y1 * da, da * db
        if den != 1:
            g = gcd(den, n0, n1)
            if g != 1:
                n0 //= g
                n1 //= g
                den //= g
        return (n0, n1), den

    def sub(a, b):
        (x0, x1), da = a
        (y0, y1), db = b
        if da == db:
            n0, n1, den = x0 - y0, x1 - y1, da
        else:
            n0, n1, den = x0 * db - y0 * da, x1 * db - y1 * da, da * db
        if den != 1:
            g = gcd(den, n0, n1)
            if g != 1:
                n0 //= g
                n1 //= g
                den //= g
        return (n0, n1), den

    def neg(a):
        (x0, x1), d = a
        return (-x0, -x1), d

    def inv(a):
        """1/a = d * conj(a) / norm(a), times t / t to keep both integral."""
        (x0, x1), d = a
        if not x1:
            if not x0:
                raise ZeroDenominator("division by zero in number field")
            return ((d, 0), x0) if x0 > 0 else ((-d, 0), -x0)
        norm = t * x0 * x0 + r1 * x0 * x1 - r0 * x1 * x1
        if norm < 0:
            d, norm = -d, -norm
        return _lowest((d * (t * x0 + r1 * x1), -d * t * x1), norm)

    return mul, add, sub, neg, inv


def _general_arithmetic(m, t, high_powers):
    """Pair arithmetic of a field of degree m, whose powers alpha^m ..
    alpha^(2m-2) are the rows of high_powers over the denominator t (in
    degree 1, alpha itself is the one row)."""

    def mul(a, b):
        x, da = a
        y, db = b
        den = da * db
        prod = [0] * (2 * m - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        prod[i + j] += xi * yj
        out = prod[:m]
        if any(prod[m:]):
            if t != 1:
                out = [c * t for c in out]
                den *= t
            for c, row in zip(prod[m:], high_powers):
                if c:
                    for k, r in enumerate(row):
                        out[k] += c * r
        return _lowest(tuple(out), den)

    def add(a, b):
        x, da = a
        y, db = b
        if da == db:
            return _lowest(tuple(map(operator.add, x, y)), da)
        return _lowest(tuple(u * db + v * da for u, v in zip(x, y)), da * db)

    def sub(a, b):
        x, da = a
        y, db = b
        if da == db:
            return _lowest(tuple(map(operator.sub, x, y)), da)
        return _lowest(tuple(u * db - v * da for u, v in zip(x, y)), da * db)

    def neg(a):
        return tuple(map(operator.neg, a[0])), a[1]

    def inv(a):
        """1/a by fraction-free Gauss-Jordan elimination (Nakos, Turner and
        Williams, SIGSAM Bull. 31(3), 1997) on the matrix of multiplication
        by a's numerators, with column j scaled by t^j so that it is
        integral."""
        x, d = a
        if not any(x):
            raise ZeroDenominator("division by zero in number field")
        top_row = high_powers[0]
        cols = [list(x)]
        for _ in range(m - 1):
            c = cols[-1]
            nxt = [0] + [v * t for v in c[:-1]]
            if c[-1]:
                for k, r in enumerate(top_row):
                    nxt[k] += c[-1] * r
            cols.append(nxt)
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(m)]
        prev = 1
        for k in range(m):
            # A nonzero a has an invertible matrix: some pivot is nonzero.
            p = next(i for i in range(k, m) if rows[i][k])
            rows[k], rows[p] = rows[p], rows[k]
            pivot_row = rows[k]
            pk = pivot_row[k]
            for i, row in enumerate(rows):
                if i != k:
                    f = row[k]
                    rows[i] = [(pk * v - f * w) // prev for v, w in zip(row, pivot_row)]
            prev = pk
        # Every diagonal entry is now prev, the last column prev times the
        # solution of the scaled system; undo the scaling and the den of a.
        num = tuple(d * t ** j * rows[j][m] for j in range(m))
        if prev < 0:
            num, prev = tuple(-v for v in num), -prev
        return _lowest(num, prev)

    return mul, add, sub, neg, inv


class NumberField:
    """L = Q(alpha) for a monic irreducible minimal polynomial over Q.

    pair_mul, pair_add, pair_sub, pair_neg and pair_inv are its arithmetic on
    (num, den) pairs, the one form in which its elements store themselves.
    """

    __slots__ = ("minpoly", "gen_name", "degree",
                 "pair_mul", "pair_add", "pair_sub", "pair_neg", "pair_inv")

    def __init__(self, minpoly_coeffs, gen_name="a"):
        coeffs = tuple(_as_fraction(c) for c in minpoly_coeffs)
        if len(coeffs) < 2:
            raise InputError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise InputError("minimal polynomial must be monic")
        if not _poly_is_irreducible(coeffs):
            raise InputError("minimal polynomial is reducible over Q")
        self.minpoly = coeffs
        self.gen_name = gen_name
        self.degree = m = len(coeffs) - 1
        # alpha^m = -(c0 + c1*alpha + ... + c_{m-1}*alpha^{m-1}); extend up to
        # alpha^(2m-2) so products reduce in one table lookup.  The table is
        # stored as ints over one denominator, 1 for a monic integer minpoly.
        powers = []
        cur = [-c for c in coeffs[:m]]
        powers.append(cur)
        for _ in range(m - 2):
            nxt = [Fraction(0)] + cur[: m - 1]
            top = cur[m - 1]
            if top:
                for k in range(m):
                    nxt[k] += top * powers[0][k]
            powers.append(nxt)
            cur = nxt
        den = lcm(*(c.denominator for row in powers for c in row))
        high_powers = tuple(tuple(int(c * den) for c in row) for row in powers)
        if m == 2:
            arithmetic = _quadratic_arithmetic(*high_powers[0], den)
        else:
            arithmetic = _general_arithmetic(m, den, high_powers)
        (self.pair_mul, self.pair_add, self.pair_sub, self.pair_neg,
         self.pair_inv) = arithmetic

    def __repr__(self):
        return f"NumberField(deg={self.degree}, gen={self.gen_name!r})"

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, NumberField)
            and self.minpoly == other.minpoly
            and self.gen_name == other.gen_name
        )

    def __hash__(self):
        return hash((self.minpoly, self.gen_name))

    # -- element constructors -------------------------------------------------

    def element(self, coeffs) -> "NumberFieldElement":
        vec = [_as_fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            if any(vec[self.degree:]):
                raise InputError("coefficient vector longer than field degree")
            vec = vec[: self.degree]
        # Over the lcm of the denominators the vector is already in lowest terms.
        den = lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        num += [0] * (self.degree - len(num))
        return NumberFieldElement(self, (tuple(num), den))

    def rational(self, x) -> "NumberFieldElement":
        if isinstance(x, int):
            num, den = x, 1
        else:
            x = _as_fraction(x)
            num, den = x.numerator, x.denominator
        return NumberFieldElement(self, ((num,) + (0,) * (self.degree - 1), den))

    @property
    def zero(self):
        return self.rational(0)

    @property
    def one(self):
        return self.rational(1)

    @property
    def gen(self):
        if self.degree == 1:
            # Q itself: alpha is the root of the degree-1 minpoly.
            return self.rational(-self.minpoly[0])
        return self.element([0, 1])

    # -- element arithmetic that the tracer counts ----------------------------

    def _mul(self, a, b):
        return NumberFieldElement(self, self.pair_mul(a.pair, b.pair))

    def _inv(self, a):
        return NumberFieldElement(self, self.pair_inv(a.pair))


class NumberFieldElement:
    """num/den in the power basis, stored as the pair (num, den): num is a
    tuple of m ints and den a positive int, in lowest terms
    (gcd(den, *num) == 1), so that equal elements have equal pairs.  Build
    elements with NumberField.element or NumberField.rational."""

    __slots__ = ("field", "pair")

    def __init__(self, field: NumberField, pair):
        self.field = field
        self.pair = pair

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions."""
        num, den = self.pair
        return tuple(Fraction(v, den) for v in num)

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return not any(self.pair[0])

    def is_rational(self):
        return not any(self.pair[0][1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        num, den = self.pair
        return Fraction(num[0], den)

    # -- arithmetic: wrappers over the field's pair arithmetic -----------------

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is not self.field and other.field != self.field:
                raise InputError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not NumberFieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return NumberFieldElement(self.field, self.field.pair_add(self.pair, other.pair))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not NumberFieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return NumberFieldElement(self.field, self.field.pair_sub(self.pair, other.pair))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return NumberFieldElement(self.field, self.field.pair_neg(self.pair))

    def __mul__(self, other):
        if type(other) is not NumberFieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def inverse(self):
        return self.field._inv(self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return (
            isinstance(other, NumberFieldElement)
            and self.pair == other.pair
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.pair)

    # -- printing (parseable by the expression grammar) -----------------------

    def __str__(self):
        parts = []
        g = self.field.gen_name
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                gk = g if k == 1 else f"{g}^{k}"
                if c == 1:
                    parts.append(gk)
                elif c == -1:
                    parts.append(f"-{gk}")
                else:
                    parts.append(f"{c}*{gk}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"<{self}>"


class GaloisGroup:
    """Gal(L/Q) as the list of alpha-images, with composition table."""

    __slots__ = ("field", "images", "identity_index", "nontrivial", "table", "_matrices")

    def __init__(self, field: NumberField, images):
        imgs = []
        for im in images:
            if not isinstance(im, NumberFieldElement):
                im = field.element(im)
            imgs.append(im)
        m = field.degree
        if len(imgs) != m:
            raise InputError(
                f"a Galois group of Q(α) with [L:Q]={m} needs exactly {m} "
                f"automorphisms, got {len(imgs)}"
            )
        if len(set(imgs)) != m:
            raise InputError("automorphism images are not pairwise distinct")
        for im in imgs:
            _check_root(field, im)
        self.field = field
        self.images = tuple(imgs)
        # For each sigma, the powers image^k as rows of ints over one
        # denominator, so that applying sigma is an integer dot product.
        matrices = []
        for im in imgs:
            pw = [field.one]
            for _ in range(m - 1):
                pw.append(pw[-1] * im)
            matrices.append(_over_common_den(pw))
        self._matrices = tuple(matrices)
        gen = field.gen
        try:
            self.identity_index = next(
                i for i, im in enumerate(imgs) if im == gen
            )
        except StopIteration:
            raise InputError("identity automorphism (alpha -> alpha) is missing")
        # The non-identity indices, in index order: a check made sigma by
        # sigma visits these, since the identity's holds term for term.
        self.nontrivial = tuple(i for i in range(m) if i != self.identity_index)
        # Composition closure: sigma_i o sigma_j must be another listed map.
        by_image = {im: k for k, im in enumerate(imgs)}
        table = []
        for i in range(m):
            row = []
            for j in range(m):
                k = by_image.get(self.apply(i, imgs[j]))
                if k is None:
                    raise InputError(
                        "automorphisms are not closed under composition"
                    )
                row.append(k)
            table.append(tuple(row))
        self.table = tuple(table)

    @property
    def order(self):
        return len(self.images)

    def __iter__(self):
        return iter(range(self.order))

    def apply(self, sigma: int, a: NumberFieldElement) -> NumberFieldElement:
        """sigma(a): evaluate a's power-basis polynomial at sigma(alpha)."""
        rows, den = self._matrices[sigma]
        num, d = a.pair
        out = [0] * len(rows)
        for c, row in zip(num, rows):
            if c:
                for k, r in enumerate(row):
                    out[k] += c * r
        return NumberFieldElement(self.field, _lowest(tuple(out), d * den))

    def compose(self, i: int, j: int) -> int:
        """Index of sigma_i o sigma_j (apply sigma_j first)."""
        return self.table[i][j]

    def inverse_of(self, i: int) -> int:
        return next(j for j in range(self.order) if self.table[i][j] == self.identity_index)

    def trace(self, a: NumberFieldElement) -> NumberFieldElement:
        return sum((self.apply(i, a) for i in self), self.field.zero)

    def is_fixed(self, a: NumberFieldElement) -> bool:
        return all(self.apply(i, a) == a for i in self.nontrivial)


def _over_common_den(elements):
    """(rows, den): each element's numerators scaled to one common den."""
    pairs = [e.pair for e in elements]
    den = lcm(*(d for _, d in pairs))
    return tuple(tuple(v * (den // d) for v in num) for num, d in pairs), den


def _check_root(field: NumberField, x: NumberFieldElement):
    """Raise InputError unless x is a root of the field's minimal polynomial."""
    out = field.zero
    for c in reversed(field.minpoly):
        out = out * x + field.rational(c)
    if not out.is_zero():
        raise InputError(f"{x} is not a root of the minimal polynomial")


class BasisMatrix:
    """The m x m matrix with entries sigma_i(e_j) for a Q-basis of L."""

    __slots__ = ("group", "basis", "entries")

    def __init__(self, group: GaloisGroup, basis, entries):
        self.group = group
        self.basis = tuple(basis)
        self.entries = tuple(tuple(row) for row in entries)


def basis_matrix(group: GaloisGroup, basis) -> BasisMatrix:
    """Build the automorphism matrix of a claimed basis; singular input is an error."""
    field = group.field
    m = field.degree
    basis = [b if isinstance(b, NumberFieldElement) else field.element(b) for b in basis]
    if len(basis) != m:
        raise SingularBasis(f"expected {m} basis elements, got {len(basis)}")
    entries = [[group.apply(i, e) for e in basis] for i in range(m)]
    mat = BasisMatrix(group, basis, entries)
    solve_trace_coefficients(mat)  # raises SingularBasis on dependent elements
    return mat


def solve_trace_coefficients(A: BasisMatrix):
    """Solve A * lambda = delta over L, where delta is 1 on the identity's row
    and 0 elsewhere.

    Row i of A holds sigma_i(e_j), so sum_j lambda_j * Tr(e_j * P) is
    sum_i (A * lambda)_i * sigma_i(P) = P for every polynomial P over L,
    wherever the group lists the identity.
    """
    field = A.group.field
    n = len(A.basis)
    e = A.group.identity_index
    rows = [list(A.entries[i]) + [field.one if i == e else field.zero] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            raise SingularBasis("the given elements are not a basis of L over Q")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))


def power_basis(field: NumberField):
    """The default basis 1, alpha, ..., alpha^(m-1)."""
    out = [field.one]
    for _ in range(field.degree - 1):
        out.append(out[-1] * field.gen)
    return tuple(out)
