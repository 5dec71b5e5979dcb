from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import weildescent as wd


@pytest.fixture
def ring(qi):
    return wd.PolyRing(qi, ("x", "y"))


def p(text, ring):
    return wd.parse_poly(text, ring)


class TestArithmetic:
    def test_binomial_square(self, ring):
        # [TRIVIAL]
        assert p("(x + y)^2", ring) == p("x^2 + 2*x*y + y^2", ring)

    def test_difference_of_squares(self, ring):
        assert p("(x - y)*(x + y)", ring) == p("x^2 - y^2", ring)

    def test_cancellation_to_zero(self, ring):
        q = p("x^2 + i*y", ring)
        assert (q - q).is_zero()
        assert not q.terms.get((0,) * ring.nvars)

    def test_scalar_coercion(self, ring):
        assert p("x", ring) * 2 - p("2*x", ring) == ring.zero

    def test_total_degree_and_degree_in(self, ring):
        q = p("x^3*y + y^2", ring)
        assert q.total_degree() == 4
        assert q.degree_in(0) == 3
        assert q.degree_in(1) == 2

    def test_substitute(self, ring):
        q = p("x^2 + y", ring)
        out = q.substitute([p("y", ring), p("x*y", ring)])
        assert out == p("y^2 + x*y", ring)
        # Into another ring: the target is the values' ring.
        line = wd.PolyRing(ring.field, ("u",))
        out = q.substitute([p("u - i", line), p("u^3", line)])
        assert out == p("u^3 + u^2 - 2*i*u - 1", line)

    def test_evaluate(self, qi, ring):
        q = p("x^2 + i*y", ring)
        val = q.evaluate([qi.rational(2), qi.rational(3)])
        assert val == qi.element([4, 3])
        # [DERIVED] at (1 + i, i): (1 + i)^2 + i*i = 2i - 1
        val = q.evaluate([qi.element([1, 1]), qi.gen])
        assert val == qi.element([-1, 2])


class TestSigmaAndTrace:
    def test_sigma_conjugates_coefficients(self, ring, qi_group):
        q = p("i*x + 3", ring)
        assert q.sigma(qi_group, 1) == p("-1*i*x + 3", ring)

    def test_sigma_is_ring_homomorphism(self, ring, qi_group):
        a = p("i*x^2 + y", ring)
        b = p("x - i", ring)
        assert (a * b).sigma(qi_group, 1) == a.sigma(qi_group, 1) * b.sigma(qi_group, 1)

    def test_poly_trace_rational(self, ring, qi_group):
        q = p("i*x + 2*y + i", ring)
        t = wd.poly_trace(q, qi_group)
        assert t == p("4*y", ring)
        assert t.has_rational_coefficients()

    def test_trace_of_rational_poly_doubles(self, ring, qi_group):
        q = p("x^2 - y", ring)
        assert wd.poly_trace(q, qi_group) == q * 2


class TestCanonicalString:
    def test_round_trip(self, ring):
        q = p("1/2*x^2*y - i*x + 3", ring)
        assert wd.parse_poly(str(q), ring) == q

    def test_deterministic(self, ring):
        a = p("y + x + x^2", ring)
        b = p("x^2 + x + y", ring)
        assert str(a) == str(b)


FRACTION_FIELDS = {
    "Q": wd.NumberField([0, 1], gen_name="q0"),
    "Q(i)": wd.NumberField([1, 0, 1], gen_name="i"),
}


def fraction_cases():
    """(field name, number of variables, a, b, g) with a, b, g term dicts of
    1-3 terms, each exponent <= 1 and small integer coefficient vectors."""
    def for_shape(name, nvars):
        coeff = st.tuples(*[st.integers(-3, 3)] * FRACTION_FIELDS[name].degree)
        mono = st.tuples(*[st.integers(0, 1)] * nvars)
        terms = st.dictionaries(mono, coeff.filter(any), min_size=1, max_size=3)
        return st.tuples(st.just(name), st.just(nvars), terms, terms, terms)
    shapes = st.tuples(st.sampled_from(sorted(FRACTION_FIELDS)), st.integers(1, 3))
    return shapes.flatmap(lambda shape: for_shape(*shape))


def to_sympy(P):
    return sympy.sympify(str(P).replace("^", "**"), locals={"i": sympy.I})


class TestRationalMap:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(fraction_cases())
    # (x^2 - 1)/(x - 1), and (x - 1)/(y + 2) times (x + y + z)/(x + y + z).
    @example(("Q(i)", 1, {(2,): (1, 0), (0,): (-1, 0)},
              {(1,): (1, 0), (0,): (-1, 0)}, {(0,): (1, 0)}))
    @example(("Q", 3, {(1, 0, 0): (1,), (0, 0, 0): (-1,)},
              {(0, 1, 0): (1,), (0, 0, 0): (2,)},
              {(1, 0, 0): (1,), (0, 1, 0): (1,), (0, 0, 1): (1,)}))
    def test_fraction_normal_form_matches_sympy(self, case):
        """(a*g)/(b*g) reduces to lowest terms with a monic denominator;
        sympy's gcd over Q(i) is the oracle for lowest terms."""
        name, nvars, a, b, g = case
        field = FRACTION_FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y", "z")[:nvars])

        def poly(terms):
            return wd.MultiPoly(ring, {m: field.element(c) for m, c in terms.items()})

        num_in, den_in = poly(a) * poly(g), poly(b) * poly(g)
        (num, den), = wd.RationalMap(ring, [(num_in, den_in)]).components
        assert num * den_in == num_in * den
        common = sympy.gcd(to_sympy(num), to_sympy(den), extension=sympy.I)
        assert not common.free_symbols
        assert den.leading_term()[1] == field.one

    def test_monomial_content_removed(self, ring):
        f = wd.RationalMap(ring, [(p("x^2*y", ring), p("x*y^2", ring))])
        num, den = f.components[0]
        assert num == p("x", ring)
        assert den == p("y", ring)

    def test_monic_denominator(self, ring):
        f = wd.RationalMap(ring, [(p("x", ring), p("i*y", ring))])
        _, den = f.components[0]
        _, lc = den.leading_term()
        assert lc == ring.field.one

    def test_zero_denominator_rejected(self, ring):
        with pytest.raises(wd.ZeroDenominator):
            wd.RationalMap(ring, [(p("x", ring), ring.zero)])

    def test_identity_and_compose(self, ring):
        ident = wd.identity_map(ring)
        f = wd.RationalMap(ring, [p("x + y", ring), p("x*y", ring)])
        assert wd.compose_map(ident, f).components == f.components
        assert wd.compose_map(f, ident).components == f.components

    def test_compose_fractions(self, qi):
        ring = wd.PolyRing(qi, ("x",))
        f = wd.RationalMap(ring, [(ring.one, p("x", ring))])  # x -> 1/x
        ff = wd.compose_map(f, f)  # back to x
        assert ff.components == wd.identity_map(ring).components

    def test_sigma_on_map(self, ring, qi_group):
        f = wd.RationalMap(ring, [p("i*x", ring), p("y", ring)])
        g = f.sigma(qi_group, 1)
        assert g.components[0][0] == p("-1*i*x", ring)

    def test_arity_mismatch_rejected(self, ring, qi):
        uni = wd.PolyRing(qi, ("x",))
        f = wd.RationalMap(ring, [p("x", ring)])  # arity 1
        g = wd.RationalMap(ring, [p("x", ring), p("y", ring)])  # arity 2
        with pytest.raises(wd.InputError):
            wd.compose_map(g, f)


class TestTransplant:
    def test_transplant_by_name(self, qi):
        small = wd.PolyRing(qi, ("x", "y"))
        big = wd.PolyRing(qi, ("z", "x", "y"))
        q = p("x^2 + i*y", small)
        moved = q.transplant(big)
        assert moved == p("x^2 + i*y", big)
        assert moved.transplant(small) == q

    def test_transplant_missing_variable_rejected(self, qi):
        small = wd.PolyRing(qi, ("x", "y"))
        other = wd.PolyRing(qi, ("x", "z"))
        with pytest.raises(wd.InputError):
            p("x + y", small).transplant(other)
