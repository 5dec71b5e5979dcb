"""Recursive-descent parser for the polynomial expression grammar.

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' natural)?
    base     := rational | generator | variable | '(' expr ')'
    rational := integer ('/' positive-integer)?

Whitespace is insignificant; multiplication is always explicit.  Parentheses
nest at most MAX_DEPTH deep, so deep input is a parse error, not a stack
overflow.

The parser evaluates as it reads, on sparse dicts {exponent tuple: pair}
with no zero stored, whose coefficients are the field's (num, den) pairs
(sparse dict arithmetic as in Monagan & Pearce, CASC 2007).  Terms come out
in the order MultiPoly arithmetic would give them, so a parsed polynomial
iterates as it always has; parse_poly wraps the pairs into one MultiPoly at
the end.  Its products are not charged to the run's budget.
"""

from __future__ import annotations

import re
from operator import add

from .errors import PolyParseError, UnknownVariable
from .multipoly import MultiPoly, PolyRing
from .numberfield import NumberFieldElement, _lowest

__all__ = ["parse_poly"]

MAX_DEPTH = 200

# The last alternative takes any other non-space character, so that the
# matches tile the text up to trailing whitespace; a match of it is an error
# reported at the match's start, the end of the previous token.
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/])|(\S))")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        num, name, op, bad = m.groups()
        if num is not None:
            tokens.append(("int", int(num), m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        elif op is not None:
            tokens.append(("op", op, m.start(3)))
        else:
            raise PolyParseError(f"unexpected character {bad!r}", m.start())
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.depth = 0
        field = ring.field
        self.mul = field.pair_mul
        self.add = field.pair_add
        self.neg = field.pair_neg
        self.zeros = (0,) * (field.degree - 1)
        self.one = (1,) + self.zeros, 1
        self.constant_mono = (0,) * ring.nvars
        self.gen = None  # the generator's pair, read on its first use

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", pos)

    # -- arithmetic on the dicts; each takes operands the parser owns ---------

    def _add_into(self, out, b):
        """out + b, computed in out."""
        add_pair = self.add
        for m, c in b.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = add_pair(s, c)
                if any(s[0]):
                    out[m] = s
                else:
                    del out[m]
        return out

    def _negate(self, a):
        neg = self.neg
        return {m: neg(c) for m, c in a.items()}

    def _times(self, a, b):
        mul = self.mul
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # One side scales the other, whose term order the product keeps.
            ((mono, c),) = b.items()
            if any(mono):
                return {tuple(map(add, m, mono)): mul(x, c) for m, x in a.items()}
            return {m: mul(x, c) for m, x in a.items()}
        out = {}
        for m1, c1 in a.items():
            self._add_into(out, self._times({m1: c1}, b))
        return out

    def _power(self, base, n):
        out = {self.constant_mono: self.one}
        while n:
            if n & 1:
                out = self._times(out, base)
            n >>= 1
            if n:
                base = self._times(base, base)
        return out

    # -- grammar ---------------------------------------------------------------

    def parse_expr(self) -> dict:
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        out = self.parse_term()
        if sign < 0:
            out = self._negate(out)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                out = self._add_into(out, rhs if val == "+" else self._negate(rhs))
            else:
                return out

    def parse_term(self) -> dict:
        out = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = self._times(out, self.parse_factor())
            else:
                return out

    def parse_factor(self) -> dict:
        base = self.parse_base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise PolyParseError("exponent must be a natural number", pos)
            return self._power(base, val)
        return base

    def parse_base(self) -> dict:
        kind, val, pos = self.next()
        if kind == "int":
            nxt_kind, nxt_val, _ = self.peek()
            den = 1
            if nxt_kind == "op" and nxt_val == "/":
                self.next()
                dkind, den, dpos = self.next()
                if dkind != "int" or den == 0:
                    raise PolyParseError(
                        "denominator must be a positive integer", dpos
                    )
            if not val:
                return {}
            return {self.constant_mono: _lowest((val,) + self.zeros, den)}
        if kind == "name":
            ring = self.ring
            if val == ring.field.gen_name:
                if self.gen is None:
                    self.gen = ring.field.gen.pair
                # Over Q the generator is the minpoly's root, which may be 0.
                return {self.constant_mono: self.gen} if any(self.gen[0]) else {}
            i = ring._var_index.get(val)
            if i is not None:
                mono = [0] * ring.nvars
                mono[i] = 1
                return {tuple(mono): self.one}
            raise UnknownVariable(val, pos)
        if kind == "op" and val == "(":
            if self.depth == MAX_DEPTH:
                raise PolyParseError(
                    f"parentheses nested more than {MAX_DEPTH} deep", pos
                )
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise PolyParseError("expected a number, name, or parenthesis", pos)


def parse_poly(text: str, ring: PolyRing) -> MultiPoly:
    """Parse an expression into an exact polynomial over the ring's field."""
    parser = _Parser(_tokenize(text), ring)
    terms = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", pos)
    field = ring.field
    return MultiPoly(ring, {m: NumberFieldElement(field, c) for m, c in terms.items()})
