"""Recursive-descent parser for the polynomial expression grammar.

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' natural)?
    base     := rational | generator | variable | '(' expr ')'
    rational := integer ('/' positive-integer)?

Whitespace is insignificant; multiplication is always explicit.  Parentheses
nest at most MAX_DEPTH deep, so deep input is a parse error, not a stack
overflow.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import PolyParseError, UnknownVariable
from .multipoly import MultiPoly, PolyRing

__all__ = ["parse_poly"]

MAX_DEPTH = 200

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.depth = 0

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

    def parse_expr(self) -> MultiPoly:
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        out = self.parse_term()
        if sign < 0:
            out = -out
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def parse_term(self) -> MultiPoly:
        out = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self) -> MultiPoly:
        base = self.parse_base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise PolyParseError("exponent must be a natural number", pos)
            return base ** val
        return base

    def parse_base(self) -> MultiPoly:
        kind, val, pos = self.next()
        if kind == "int":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "/":
                self.next()
                dkind, dval, dpos = self.next()
                if dkind != "int" or dval == 0:
                    raise PolyParseError(
                        "denominator must be a positive integer", dpos
                    )
                return self.ring.constant(Fraction(val, dval))
            return self.ring.constant(Fraction(val))
        if kind == "name":
            if val == self.ring.field.gen_name:
                return self.ring.constant(self.ring.field.gen)
            if val in self.ring._var_index:
                return self.ring.var(val)
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
    poly = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", pos)
    return poly
