"""Exact arithmetic in a Galois number field L = Q(alpha).

Elements are coordinate vectors in the power basis 1, alpha, ..., alpha^(m-1)
with Fraction entries.  The Galois group is given by the images of alpha under
each automorphism; the base field K is always Q, represented implicitly as the
fixed field of the group.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

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
    # coeffs: low-to-high Fractions, monic.  Degree-1 is trivially irreducible;
    # otherwise delegate to sympy's exact factorization over Q.
    if len(coeffs) == 2:
        return True
    t = sympy.Symbol("t")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t
    )
    return poly.is_irreducible


class NumberField:
    """L = Q(alpha) for a monic irreducible minimal polynomial over Q."""

    __slots__ = ("minpoly", "gen_name", "degree", "_high_powers")

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
        self.degree = len(coeffs) - 1
        # alpha^m = -(c0 + c1*alpha + ... + c_{m-1}*alpha^{m-1}); extend up to
        # alpha^(2m-2) so products reduce in one table lookup.
        m = self.degree
        powers = []
        cur = [-c for c in coeffs[:m]]
        powers.append(tuple(cur))
        for _ in range(m - 2):
            nxt = [Fraction(0)] + cur[: m - 1]
            top = cur[m - 1]
            if top:
                for k in range(m):
                    nxt[k] += top * powers[0][k]
            powers.append(tuple(nxt))
            cur = nxt
        self._high_powers = tuple(powers)

    def __repr__(self):
        return f"NumberField(deg={self.degree}, gen={self.gen_name!r})"

    def __eq__(self, other):
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
        while len(vec) < self.degree:
            vec.append(Fraction(0))
        return NumberFieldElement(self, tuple(vec))

    def rational(self, x) -> "NumberFieldElement":
        return self.element([_as_fraction(x)])

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

    # -- arithmetic on raw coefficient tuples ---------------------------------

    def _mul(self, a, b):
        m = self.degree
        if m == 1:
            return (a[0] * b[0],)
        prod = [Fraction(0)] * (2 * m - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
        out = prod[:m]
        for k in range(m, 2 * m - 1):
            c = prod[k]
            if c:
                red = self._high_powers[k - m]
                for t in range(m):
                    out[t] += c * red[t]
        return tuple(out)

    def _inv(self, a):
        # Extended Euclid in Q[t] modulo the minimal polynomial.
        if not any(a):
            raise ZeroDenominator("division by zero in number field")
        if self.degree == 1:
            return (1 / a[0],)

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        def scale(p, c):
            return [x * c for x in p]

        def sub(p, q):
            n = max(len(p), len(q))
            p = p + [Fraction(0)] * (n - len(p))
            q = q + [Fraction(0)] * (n - len(q))
            return [x - y for x, y in zip(p, q)]

        r0, r1 = list(self.minpoly), list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while deg(r1) > 0:
            d0, d1 = deg(r0), deg(r1)
            if d0 < d1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            c = r0[d0] / r1[d1]
            shift = d0 - d1
            r0 = sub(r0, [Fraction(0)] * shift + scale(r1, c))
            s0 = sub(s0, [Fraction(0)] * shift + scale(s1, c))
            if deg(r0) < deg(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
        const = r1[deg(r1)]  # deg(r1) == 0 since minpoly is irreducible
        inv = scale(s1, 1 / const)
        inv = inv[: self.degree] + [Fraction(0)] * max(0, self.degree - len(inv))
        # s1 may exceed degree m-1 only transiently; reduce defensively.
        out = tuple(inv[: self.degree])
        return out


class NumberFieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is not self.field and other.field != self.field:
                raise InputError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return NumberFieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return NumberFieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return NumberFieldElement(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        return NumberFieldElement(self.field, self.field._inv(self.coeffs))

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
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

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

    __slots__ = ("field", "images", "identity_index", "table", "_matrices")

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
        if len({im.coeffs for im in imgs}) != m:
            raise InputError("automorphism images are not pairwise distinct")
        for im in imgs:
            if not _evaluate_minpoly(field, im).is_zero():
                raise InputError(f"{im} is not a root of the minimal polynomial")
        self.field = field
        self.images = tuple(imgs)
        # Precompute, for each sigma, the powers image^k so that applying sigma
        # is a coefficient-vector dot product.
        mats = []
        for im in imgs:
            pw = [field.one]
            for _ in range(m - 1):
                pw.append(pw[-1] * im)
            mats.append(tuple(pw))
        self._matrices = tuple(mats)
        gen = field.gen
        try:
            self.identity_index = next(
                i for i, im in enumerate(imgs) if im == gen
            )
        except StopIteration:
            raise InputError("identity automorphism (alpha -> alpha) is missing")
        # Composition closure: sigma_i o sigma_j must be another listed map.
        by_image = {im.coeffs: k for k, im in enumerate(imgs)}
        table = []
        for i in range(m):
            row = []
            for j in range(m):
                composed = self.apply(i, imgs[j])
                k = by_image.get(composed.coeffs)
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
        out = self.field.zero
        pw = self._matrices[sigma]
        for k, c in enumerate(a.coeffs):
            if c:
                out = out + pw[k] * c
        return out

    def compose(self, i: int, j: int) -> int:
        """Index of sigma_i o sigma_j (apply sigma_j first)."""
        return self.table[i][j]

    def inverse_of(self, i: int) -> int:
        return next(j for j in range(self.order) if self.table[i][j] == self.identity_index)

    def trace(self, a: NumberFieldElement) -> NumberFieldElement:
        out = self.field.zero
        for i in range(self.order):
            out = out + self.apply(i, a)
        return out

    def is_fixed(self, a: NumberFieldElement) -> bool:
        return all(self.apply(i, a) == a for i in range(self.order))


def _evaluate_minpoly(field: NumberField, x: NumberFieldElement):
    out = field.zero
    for c in reversed(field.minpoly):
        out = out * x + field.rational(c)
    return out


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
    """Solve A * lambda = (1, 0, ..., 0)^T over L.

    The returned vector makes P = sum_j lambda_j * Tr(e_j * P) an identity for
    every polynomial P over L.
    """
    field = A.group.field
    n = len(A.basis)
    rows = [list(A.entries[i]) + [field.one if i == 0 else field.zero] for i in range(n)]
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
