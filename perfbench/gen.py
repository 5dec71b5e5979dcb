"""Seeded generator of twisted descent problems whose answer is known.

Uses only ``fractions`` arithmetic over Q[t]/(minpoly), never the program
under test, so a change to the program's printing or arithmetic cannot change
the workload.  The same seed gives byte-identical texts.

Construction: take a variety Y0 over Q and an invertible L-linear map A, set
X = A(Y0) and f_sigma = A^sigma o A^-1.  That datum is a coboundary, so it
satisfies the cocycle condition, and (Y0, R0 = A^-1, R0^-1 = A) is a model
over Q whose claimed document must be accepted.
"""

from __future__ import annotations

from fractions import Fraction

# name -> (minpoly, low to high; generator name; [(label, image of the
# generator in the power basis)], identity first).
FIELDS = {
    "Qi": ((1, 0, 1), "i", [("e", (0, 1)), ("conj", (0, -1))]),
    "Qsqrt2": ((-2, 0, 1), "s", [("e", (0, 1)), ("neg", (0, -1))]),
    # cyclic cubic: a -> a^2 - 2 -> -a^2 - a + 2
    "cubic": ((1, -3, 0, 1), "a",
              [("e", (0, 1, 0)), ("r", (-2, 0, 1)), ("r2", (2, -1, -1))]),
    # Q(sqrt 2 + sqrt 3): b -> +-b, +-(b^3 - 10 b)
    "biquad": ((1, 0, -10, 0, 1), "b",
               [("e", (0, 1, 0, 0)), ("n", (0, -1, 0, 0)),
                ("u", (0, -10, 0, 1)), ("v", (0, 10, 0, -1))]),
    # Q(zeta_5): z -> z^k
    "zeta5": ((1, 1, 1, 1, 1), "z",
              [("e", (0, 1, 0, 0)), ("k2", (0, 0, 1, 0)),
               ("k3", (0, 0, 0, 1)), ("k4", (-1, -1, -1, -1))]),
}


class Field:
    """Q(alpha) with elements as tuples of Fractions in the power basis."""

    def __init__(self, key):
        minpoly, gen, autos = FIELDS[key]
        self.key = key
        self.minpoly = tuple(Fraction(c) for c in minpoly)
        self.m = len(minpoly) - 1
        self.gen = gen
        self.labels = [lab for lab, _ in autos]
        self.images = [self.elt(img) for _, img in autos]

    def elt(self, coeffs):
        vec = [Fraction(c) for c in coeffs] + [Fraction(0)] * self.m
        return tuple(vec[: self.m])

    def zero(self):
        return self.elt(())

    def one(self):
        return self.elt((1,))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.elt(_poly_mod(prod, self.minpoly))

    def inv(self, a):
        """Inverse by the extended Euclidean algorithm in Q[t]."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = list(self.minpoly), _trim(list(a))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _trim(_poly_sub(s0, _poly_mul(q, s1)))
        c = r1[0]
        return self.elt([x / c for x in _poly_mod(s1, self.minpoly)])

    def apply(self, sigma, a):
        """sigma(a): evaluate a's power-basis polynomial at sigma(alpha)."""
        img = self.images[sigma]
        out = self.zero()
        for c in reversed(a):
            out = self.add(self.mul(out, img), self.elt((c,)))
        return out

    def fmt(self, a):
        """Text of an element in the problem-file expression grammar."""
        parts = []
        for k, c in enumerate(a):
            if not c:
                continue
            mag = abs(c)
            sign = "-" if c < 0 else "+"
            gk = "" if k == 0 else (self.gen if k == 1 else f"{self.gen}^{k}")
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = gk
            else:
                body = f"{mag}*{gk}"
            parts.append((sign, body))
        return _join(parts)


def _join(parts):
    """'a - b + c' from [(sign, body), ...]; '0' when there are no parts."""
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _trim(p):
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _trim(out)


def _poly_sub(p, q):
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return [x - y for x, y in zip(p, q)]


def _poly_divmod(p, q):
    p = _trim(list(p))
    q = _trim(list(q))
    quo = [Fraction(0)] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q) and any(p):
        c = p[-1] / q[-1]
        shift = len(p) - len(q)
        quo[shift] = c
        for k, y in enumerate(q):
            p[k + shift] -= c * y
        p.pop()
        p = _trim(p) if p else [Fraction(0)]
    return _trim(quo), p


def _poly_mod(p, mod):
    return _poly_divmod(p, mod)[1]


# -- polynomials over L: {exponent tuple: element} ---------------------------------


def p_add(F, P, Q):
    out = dict(P)
    for m, c in Q.items():
        s = F.add(out[m], c) if m in out else c
        if any(s):
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_mul(F, P, Q):
    out = {}
    for m1, c1 in P.items():
        for m2, c2 in Q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out = p_add(F, out, {m: F.mul(c1, c2)})
    return out


def p_const(F, n, c):
    return {(0,) * n: c} if any(c) else {}


def p_subst(F, P, forms):
    """P(forms[0], ..., forms[n-1]) for linear forms in n variables."""
    n = len(forms)
    out = {}
    for mono, c in P.items():
        term = p_const(F, n, c)
        for form, e in zip(forms, mono):
            for _ in range(e):
                term = p_mul(F, term, form)
        out = p_add(F, out, term)
    return out


def p_fmt(F, P, names):
    """Deterministic text: terms by descending degree, then exponents."""
    parts = []
    for mono in sorted(P, key=lambda m: (sum(m), m), reverse=True):
        c = P[mono]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        rational = not any(c[1:])
        if not factors:
            text = F.fmt(c)
            sign = "-" if text.startswith("-") and rational else "+"
            body = text[1:] if sign == "-" else (text if rational else f"({text})")
        elif rational:
            sign = "-" if c[0] < 0 else "+"
            mag = abs(c[0])
            body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        else:
            sign = "+"
            body = f"({F.fmt(c)})*" + "*".join(factors)
        parts.append((sign, body))
    return _join(parts)


# -- linear maps over L ---------------------------------------------------------------


def m_mul(F, A, B):
    n = len(A)
    return [[_dot(F, [A[i][k] for k in range(n)], [B[k][j] for k in range(n)])
             for j in range(n)] for i in range(n)]


def _dot(F, u, v):
    out = F.zero()
    for x, y in zip(u, v):
        out = F.add(out, F.mul(x, y))
    return out


def m_inv(F, A):
    """Gauss-Jordan inverse; A is invertible by construction."""
    n = len(A)
    rows = [list(A[i]) + [F.one() if i == j else F.zero() for j in range(n)]
            for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if any(rows[r][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = F.inv(rows[col][col])
        rows[col] = [F.mul(x, inv) for x in rows[col]]
        for r in range(n):
            if r != col and any(rows[r][col]):
                f = rows[r][col]
                rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def m_sigma(F, A, s):
    return [[F.apply(s, x) for x in row] for row in A]


def m_forms(F, A):
    """The components sum_j A[k][j] * v_j as linear polynomials."""
    n = len(A)
    return [{tuple(1 if k == j else 0 for k in range(n)): A[i][j]
             for j in range(n) if any(A[i][j])} for i in range(n)]


# -- problems ---------------------------------------------------------------------------


class Problem:
    """A generated problem with its known-answer claimed model."""

    def __init__(self, name, F, y0, A, comment):
        n = len(A)
        self.name = name
        self.F = F
        self.n = n
        self.xnames = [f"x{k + 1}" for k in range(n)]
        self.ynames = [f"w{k + 1}" for k in range(n)]
        Ainv = m_inv(F, A)
        self.y0 = y0
        self.x_eqs = [p_subst(F, P, m_forms(F, Ainv)) for P in y0]
        self.datum = [
            m_forms(F, m_mul(F, m_sigma(F, A, s), Ainv)) for s in range(1, len(F.labels))
        ]
        self.map = m_forms(F, Ainv)       # R0 = A^-1 : X -> Y0
        self.inverse = m_forms(F, A)      # R0^-1 = A : Y0 -> X
        self.comment = comment

    def problem_text(self, datum=None, minpoly=None):
        F = self.F
        datum = self.datum if datum is None else datum
        lines = [f"# {self.comment}", "[field]",
                 f"minpoly = {minpoly or minpoly_text(F.minpoly)}",
                 f"generator = {F.gen}", "", "[galois]"]
        for lab, img in zip(F.labels, F.images):
            lines.append(f"{lab} = {F.fmt(img)}")
        lines += ["", "[variety]", f"variables = {', '.join(self.xnames)}"]
        lines += [f"equation = {p_fmt(F, P, self.xnames)}" for P in self.x_eqs]
        for lab, forms in zip(F.labels[1:], datum):
            lines += ["", f"[datum.{lab}]"]
            lines += [f"component = {p_fmt(F, c, self.xnames)}" for c in forms]
        return "\n".join(lines) + "\n"

    def claimed_text(self, y_eqs=None):
        F = self.F
        y_eqs = self.y0 if y_eqs is None else y_eqs
        lines = [f"# known-answer model of: {self.comment}", "[Y]",
                 f"variables = {', '.join(self.ynames)}"]
        lines += [f"equation = {p_fmt(F, P, self.ynames)}" for P in y_eqs]
        lines += ["", "[map]"]
        lines += [f"component = {p_fmt(F, c, self.xnames)}" for c in self.map]
        lines += ["", "[inverse]"]
        lines += [f"component = {p_fmt(F, c, self.ynames)}" for c in self.inverse]
        return "\n".join(lines) + "\n"


def minpoly_text(coeffs):
    """t^m + ... + c0 for rational coefficients listed low to high."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        tk = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        mag = abs(c)
        body = str(mag) if k == 0 else (tk if mag == 1 else f"{mag}*{tk}")
        parts.append(("-" if c < 0 else "+", body))
    return _join(parts)


def _small(rng):
    """A nonzero integer in [-3, 3]."""
    return rng.choice((-1, 1)) * rng.randint(1, 3)


def _twist(rng, F, base):
    """+-sigma(base) for a seeded sigma and sign.

    Conjugates and negatives share one norm, so the program does about the
    same arithmetic for every seed.  With base = c0 + c1*alpha, c1 != 0, every
    sigma != e moves the result, because it moves alpha.
    """
    a = F.apply(rng.randrange(len(F.images)), F.elt(base))
    return a if rng.random() < 0.5 else tuple(-x for x in a)


def space_curve(rng, field_key, name):
    """Two rational quadrics in 3 variables, twisted by A = diag(a1, 1, a3).

    Every input has the same monomial support and coefficients of the same
    size, so the Groebner work is about the same for every seed.  The y2^2
    coefficient keeps y1^2 + c*y2^2 irreducible over Q(i) and Q(sqrt 2).
    a3/a1 is never in Q or Q*alpha: there sigma(a3)/a3 = +-sigma(a1)/a1, the
    two twisted coordinates move together and the problem gets cheaper.
    """
    F = Field(field_key)
    c = [rng.choice((2, 3, -3))] + [_small(rng) for _ in range(5)]
    y0 = [
        # y1^2 + c0 y2^2 + c1 y3 + c2
        {(2, 0, 0): F.one(), (0, 2, 0): F.elt((c[0],)),
         (0, 0, 1): F.elt((c[1],)), (0, 0, 0): F.elt((c[2],))},
        # y1 y2 + c3 y3^2 + c4 y1 + c5
        {(1, 1, 0): F.one(), (0, 0, 2): F.elt((c[3],)),
         (1, 0, 0): F.elt((c[4],)), (0, 0, 0): F.elt((c[5],))},
    ]
    one, zero = F.one(), F.zero()
    A = [[_twist(rng, F, (1, 1)), zero, zero], [zero, one, zero],
         [zero, zero, _twist(rng, F, (1, 2))]]
    return Problem(name, F, y0, A, f"space curve over {field_key}, X = A(Y0)")


def point_pair(rng, field_key, name, through_origin):
    """Y0 = two rational points on the line, twisted by x -> a*x.

    Every non-identity sigma moves a (see _twist).  Through the origin the
    conjugates of X meet at 0, so the program must disjointify.  Otherwise
    the roots r1, r2 are nonzero with r1 != +-r2, which keeps every pair of
    conjugates disjoint (sigma(a)/a = r1/r2 would force (r1/r2)^m = 1).
    """
    F = Field(field_key)
    if through_origin:
        r1, r2 = 0, _small(rng)
    else:
        r1 = _small(rng)
        r2 = _small(rng)
        while abs(r2) == abs(r1):
            r2 = _small(rng)
    y0 = [p_add(F, p_add(F, {(2,): F.one()}, {(1,): F.elt((-(r1 + r2),))}),
                p_const(F, 1, F.elt((r1 * r2,))))]
    A = [[_twist(rng, F, (1, 1))]]
    kind = "through the origin" if through_origin else "off the origin"
    return Problem(name, F, y0, A, f"two points {kind} over {field_key}, X = a*Y0")
