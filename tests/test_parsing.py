import pytest

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
