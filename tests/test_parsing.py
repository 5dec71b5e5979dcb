from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import weildescent as wd
from weildescent.parsing import MAX_DEPTH


@pytest.fixture
def ring(qi):
    return wd.PolyRing(qi, ("x1", "x2"))


class TestGrammar:
    def test_rational_literals(self, ring):
        q = wd.parse_poly("3/4", ring)
        assert q.is_constant()
        assert q.constant_value().as_rational() == wd.parse_poly(
            "3/4", ring
        ).constant_value().as_rational()

    def test_generator_constant(self, ring, qi):
        q = wd.parse_poly("i", ring)
        assert q.constant_value() == qi.gen

    def test_leading_sign(self, ring):
        assert wd.parse_poly("-x1 + x1", ring).is_zero()
        assert wd.parse_poly("+x1", ring) == wd.parse_poly("x1", ring)

    def test_power_and_product(self, ring):
        assert wd.parse_poly("x1^2*x2", ring) == (
            ring.var("x1") * ring.var("x1") * ring.var("x2")
        )

    def test_parentheses(self, ring):
        assert wd.parse_poly("(x1 + x2)^2", ring) == wd.parse_poly(
            "x1^2 + 2*x1*x2 + x2^2", ring
        )

    def test_whitespace_insignificant(self, ring):
        assert wd.parse_poly(" x1 +  2 * x2 ", ring) == wd.parse_poly(
            "x1+2*x2", ring
        )

    def test_fraction_coefficient_times_variable(self, ring):
        q = wd.parse_poly("1/2*x1", ring)
        assert q + q == ring.var("x1")


class TestErrors:
    def test_unknown_variable(self, ring):
        with pytest.raises(wd.UnknownVariable) as exc:
            wd.parse_poly("x1 + nope", ring)
        assert exc.value.name == "nope"

    def test_malformed_reports_position(self, ring):
        with pytest.raises(wd.PolyParseError) as exc:
            wd.parse_poly("x1 + ", ring)
        assert exc.value.position is not None

    def test_unbalanced_parenthesis(self, ring):
        with pytest.raises(wd.PolyParseError):
            wd.parse_poly("(x1 + x2", ring)

    def test_stray_character(self, ring):
        with pytest.raises(wd.PolyParseError):
            wd.parse_poly("x1 ? x2", ring)

    def test_negative_exponent_rejected(self, ring):
        with pytest.raises(wd.PolyParseError):
            wd.parse_poly("x1^-2", ring)

    def test_implicit_multiplication_rejected(self, ring):
        with pytest.raises(wd.PolyParseError):
            wd.parse_poly("2 x1", ring)

    def test_empty_input_rejected(self, ring):
        with pytest.raises(wd.PolyParseError):
            wd.parse_poly("", ring)

    def test_deep_nesting_rejected(self, ring):
        assert wd.parse_poly("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, ring) == (
            ring.var("x1")
        )
        for depth in (MAX_DEPTH + 1, 2000):
            with pytest.raises(wd.PolyParseError) as exc:
                wd.parse_poly("(" * depth + "x1" + ")" * depth, ring)
            assert exc.value.position == MAX_DEPTH


# -- oracle: the parse of a random expression tree equals the tree evaluated
# with MultiPoly arithmetic, term for term and in the same term order.

# Q as the minimal-polynomial loader builds it (its generator is the root 0
# of t), Q(i), Q(sqrt 2) and the cyclic cubic field.
PARSE_FIELDS = {
    "Q": ([0, 1], "_q"),
    "Q(i)": ([1, 0, 1], "i"),
    "Q(sqrt2)": ([-2, 0, 1], "s"),
    "cubic": ([-1, -2, 1, 1], "a"),
}


def _parse_ring(name):
    minpoly, gen = PARSE_FIELDS[name]
    return wd.PolyRing(wd.NumberField(minpoly, gen_name=gen), ("x1", "x2"))


def _trees(gen):
    """Trees ("int", n), ("frac", n, d), ("name", s), ("neg", t),
    (op, t, u) for op in + - *, and ("^", t, k)."""
    leaves = st.one_of(
        st.integers(0, 12).map(lambda n: ("int", n)),
        st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda nd: ("frac", *nd)),
        st.sampled_from(["x1", "x2", gen]).map(lambda s: ("name", s)),
    )

    def nodes(sub):
        return st.one_of(
            sub.map(lambda t: ("neg", t)),
            st.tuples(st.sampled_from("+-*"), sub, sub),
            st.tuples(st.just("^"), sub, st.integers(0, 3)),
        )

    return st.recursive(leaves, nodes, max_leaves=10)


def _render(tree, space):
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "frac":
        return f"{tree[1]}{space}/{space}{tree[2]}"
    if kind == "name":
        return tree[1]
    if kind == "neg":
        return f"({space}-{_render(tree[1], space)})"
    if kind == "^":
        return f"({_render(tree[1], space)}){space}^{space}{tree[2]}"
    return f"({_render(tree[1], space)}{space}{kind}{space}{_render(tree[2], space)})"


def _evaluate(tree, ring):
    kind = tree[0]
    if kind == "int":
        return ring.constant(Fraction(tree[1]))
    if kind == "frac":
        return ring.constant(Fraction(tree[1], tree[2]))
    if kind == "name":
        if tree[1] == ring.field.gen_name:
            return ring.constant(ring.field.gen)
        return ring.var(tree[1])
    if kind == "neg":
        return -_evaluate(tree[1], ring)
    if kind == "^":
        return _evaluate(tree[1], ring) ** tree[2]
    a, b = _evaluate(tree[1], ring), _evaluate(tree[2], ring)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def _assert_parses_as(text, ring, expected):
    got = wd.parse_poly(text, ring)
    assert got == expected
    assert list(got.terms.items()) == list(expected.terms.items())
    assert all(not c.is_zero() for c in got.terms.values())


class TestOracle:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("name", sorted(PARSE_FIELDS))
    def test_random_trees(self, name, data):
        ring = _parse_ring(name)
        tree = data.draw(_trees(ring.field.gen_name))
        text = _render(tree, data.draw(st.sampled_from(["", " "])))
        _assert_parses_as(text, ring, _evaluate(tree, ring))

    @pytest.mark.parametrize("name", sorted(PARSE_FIELDS))
    @pytest.mark.parametrize("text, tree", [
        ("x1^0", ("^", ("name", "x1"), 0)),
        ("0^0", ("^", ("int", 0), 0)),
        ("0^3", ("^", ("int", 0), 3)),
        ("0/7*x1 + 0", ("+", ("*", ("frac", 0, 7), ("name", "x1")), ("int", 0))),
        ("x1 - x1", ("-", ("name", "x1"), ("name", "x1"))),
        ("-(x1 - x2)^2 + x1*x2", ("+", ("neg", ("^", ("-", ("name", "x1"),
                                                        ("name", "x2")), 2)),
                                  ("*", ("name", "x1"), ("name", "x2")))),
        ("((x1 + 1)*(x1 - 1))^2", ("^", ("*", ("+", ("name", "x1"), ("int", 1)),
                                          ("-", ("name", "x1"), ("int", 1))), 2)),
        ("6/4*x2^3", ("*", ("frac", 6, 4), ("^", ("name", "x2"), 3))),
        ("GEN^2 - GEN*GEN", ("-", ("^", ("name", "GEN"), 2),
                             ("*", ("name", "GEN"), ("name", "GEN")))),
        ("(GEN + x1)^3", ("^", ("+", ("name", "GEN"), ("name", "x1")), 3)),
        ("(x1 + 1)*(x2 - GEN)", ("*", ("+", ("name", "x1"), ("int", 1)),
                                 ("-", ("name", "x2"), ("name", "GEN")))),
    ])
    def test_pinned_trees(self, name, text, tree):
        ring = _parse_ring(name)
        gen = ring.field.gen_name

        def with_gen(t):
            if t[0] == "name" and t[1] == "GEN":
                return ("name", gen)
            return tuple(with_gen(u) if isinstance(u, tuple) else u for u in t)

        _assert_parses_as(text.replace("GEN", gen), ring, _evaluate(with_gen(tree), ring))


# -- malformed input: each error's class and message, position included.
ERROR_CORPUS = [
    ("", "PolyParseError", "expected a number, name, or parenthesis (at position 0)"),
    ("   ", "PolyParseError", "expected a number, name, or parenthesis (at position 3)"),
    ("x1 +", "PolyParseError", "expected a number, name, or parenthesis (at position 4)"),
    ("x1 + ", "PolyParseError", "expected a number, name, or parenthesis (at position 5)"),
    ("x1 ? x2", "PolyParseError", "unexpected character '?' (at position 2)"),
    ("x1   ?", "PolyParseError", "unexpected character '?' (at position 2)"),
    ("x1 +\t$", "PolyParseError", "unexpected character '$' (at position 4)"),
    ("é", "PolyParseError", "unexpected character 'é' (at position 0)"),
    ("(x1 + x2", "PolyParseError", "expected ')' (at position 8)"),
    ("x1 + x2)", "PolyParseError", "trailing input ')' (at position 7)"),
    (")", "PolyParseError", "expected a number, name, or parenthesis (at position 0)"),
    ("x1 / 2", "PolyParseError", "trailing input '/' (at position 3)"),
    ("3/0", "PolyParseError", "denominator must be a positive integer (at position 2)"),
    ("3/x1", "PolyParseError", "denominator must be a positive integer (at position 2)"),
    ("3/-2", "PolyParseError", "denominator must be a positive integer (at position 2)"),
    ("x1^x2", "PolyParseError", "exponent must be a natural number (at position 3)"),
    ("x1^-2", "PolyParseError", "exponent must be a natural number (at position 3)"),
    ("x1^", "PolyParseError", "exponent must be a natural number (at position 3)"),
    ("2 x1", "PolyParseError", "trailing input 'x1' (at position 2)"),
    ("x1 x2", "PolyParseError", "trailing input 'x2' (at position 3)"),
    ("x1 + nope", "UnknownVariable", "unknown variable 'nope' (at position 5)"),
    ("x1 ** 2", "PolyParseError", "expected a number, name, or parenthesis (at position 4)"),
    ("*x1", "PolyParseError", "expected a number, name, or parenthesis (at position 0)"),
    ("--x1", "PolyParseError", "expected a number, name, or parenthesis (at position 1)"),
    ("x1 + + x2", "PolyParseError", "expected a number, name, or parenthesis (at position 5)"),
    ("()", "PolyParseError", "expected a number, name, or parenthesis (at position 1)"),
    ("i^2/3", "PolyParseError", "trailing input '/' (at position 3)"),
    ("(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1), "PolyParseError",
     f"parentheses nested more than {MAX_DEPTH} deep (at position {MAX_DEPTH})"),
    ("(" * MAX_DEPTH + "x1" + ")" * (MAX_DEPTH - 1), "PolyParseError",
     f"expected ')' (at position {2 * MAX_DEPTH + 1})"),
]


@pytest.mark.parametrize("text, kind, message", ERROR_CORPUS,
                         ids=[f"error{k}" for k in range(len(ERROR_CORPUS))])
def test_error_corpus(ring, text, kind, message):
    with pytest.raises(wd.InputError) as exc:
        wd.parse_poly(text, ring)
    assert type(exc.value).__name__ == kind
    assert str(exc.value) == message
