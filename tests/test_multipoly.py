from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import weildescent as wd
from weildescent import multipoly
from weildescent._pykernel import _run


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
        with pytest.raises(wd.InputError, match="'y' missing in target ring"):
            p("x + y", small).transplant(other)

    def test_shared_index_map(self, qi):
        # One map serves every polynomial moved between the same two rings,
        # and a polynomial using a variable that it leaves out still raises.
        small = wd.PolyRing(qi, ("x", "y", "w"))
        big = wd.PolyRing(qi, ("z", "y", "x"))
        index = multipoly._index_map(small, big)
        assert index == {0: 2, 1: 1}
        for text in ("x^2 + i*y", "y^3 - x*y + 1", "0"):
            assert p(text, small).transplant(big, index) == p(text, small).transplant(big)
        with pytest.raises(wd.InputError, match="'w' missing in target ring"):
            p("x + w", small).transplant(big, index)


# -- the power table against sympy -------------------------------------------------

# Both fields go to sympy as QQ[alpha, x, y] modulo the minimal polynomial
# m(alpha): an identity holds over the field when its difference leaves
# remainder 0 on division by m in alpha.
TABLE_FIELDS = {
    "Q(i)": wd.NumberField([1, 0, 1], gen_name="i"),
    "cubic": wd.NumberField([-1, -2, 1, 1], gen_name="a"),
}
ALPHA = sympy.Symbol("alpha")
XY = sympy.symbols("x y")


def _sym(P):
    """P as a sympy Poly in alpha, x, y; a ring in fewer variables uses the
    first of x, y."""
    terms = {}
    for mono, c in P.terms.items():
        mono = tuple(mono) + (0,) * (2 - len(mono))
        for k, q in enumerate(c.coeffs):
            if q:
                terms[(k,) + mono] = sympy.Rational(q.numerator, q.denominator)
    return sympy.Poly.from_dict(terms, ALPHA, *XY, domain=sympy.QQ)


def _minpoly(field):
    return _sym(wd.PolyRing(field, ()).zero) + sympy.Poly(
        sum(sympy.Rational(q.numerator, q.denominator) * ALPHA**k
            for k, q in enumerate(field.minpoly)), ALPHA, *XY, domain=sympy.QQ)


def _vanishes(E, field):
    """Whether the Poly E is 0 over the field."""
    return E.rem(_minpoly(field)).is_zero


def _cleared(P, f, degs):
    """sum of c * prod_i n_i^e_i * d_i^(degs_i - e_i) over the terms c*x^e of
    P, for f = (n_i/d_i): P(f) times prod_i d_i^degs_i, in sympy."""
    out = _sym(wd.PolyRing(P.ring.field, ()).zero)
    for mono, c in P.terms.items():
        term = _sym(wd.PolyRing(P.ring.field, ()).constant(c))
        for (n, d), e, deg in zip(f, mono, degs):
            term = term * _sym(n) ** e * _sym(d) ** (deg - e)
        out = out + term
    return out


def _poly(field, ring, terms):
    return wd.MultiPoly(ring, {m: field.element(c) for m, c in terms.items()})


def _component_terms(field, nvars):
    """(numerator terms, denominator terms or None for 1): 0-3 and 1-3 terms
    with exponents <= 2 and small integer coordinates."""
    coeff = st.tuples(*[st.integers(-3, 3)] * field.degree).filter(any)
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    num = st.dictionaries(mono, coeff, max_size=3)
    den = st.none() | st.dictionaries(mono, coeff, min_size=1, max_size=3)
    return st.tuples(num, den)


def _map(field, ring, comps):
    return wd.RationalMap(ring, [
        (_poly(field, ring, num), ring.one if den is None else _poly(field, ring, den))
        for num, den in comps
    ])


def table_cases():
    """(field name, components of f, components of g): two of each, over x, y."""
    def for_field(name):
        comps = st.lists(_component_terms(TABLE_FIELDS[name], 2), min_size=2, max_size=2)
        return st.tuples(st.just(name), comps, comps)
    return st.sampled_from(sorted(TABLE_FIELDS)).flatmap(for_field)


class TestPowerTable:
    """compose_map, substitute, evaluate and _composed_normal_forms all go
    through one power table per map; sympy's polynomial arithmetic over
    QQ[alpha]/(m) is the oracle."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(table_cases())
    # g's components have degrees 2 and 3 in x, and f's x has a denominator:
    # the factor d^(deg - e) of their x^1 terms differs between them.
    @example(("Q(i)", [({(1, 0): (1, 0), (0, 0): (0, 1)}, {(0, 1): (1, 0), (0, 0): (1, 0)}),
                       ({(0, 1): (1, 0)}, None)],
              [({(2, 0): (1, 0), (1, 0): (1, 0), (0, 1): (1, 0)}, None),
               ({(3, 0): (1, 0), (1, 0): (1, 0)}, {(0, 1): (1, 0), (0, 0): (2, 0)})]))
    # x^2 - y at (x, x^2) cancels to 0; a constant outer component.
    @example(("cubic", [({(1, 0): (1, 0, 0)}, None), ({(2, 0): (1, 0, 0)}, None)],
              [({(2, 0): (1, 0, 0), (0, 1): (-1, 0, 0)}, None),
               ({(0, 0): (0, 1, 0)}, {(0, 0): (2, 0, 0)})]))
    def test_compose_matches_sympy(self, case):
        """num/den = gnum(f)/gden(f): num * gden(f) = den * gnum(f), both
        sides times prod d_i^3 to clear f's denominators."""
        name, f_comps, g_comps = case
        field = TABLE_FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        f, g = _map(field, ring, f_comps), _map(field, ring, g_comps)
        try:
            composed = wd.compose_map(g, f)
        except wd.ZeroDenominator:
            assert any(_vanishes(_cleared(d, f.components, (3, 3)), field)
                       for _, d in g.components)
            return
        for (gnum, gden), (num, den) in zip(g.components, composed.components):
            assert not den.is_zero()
            top = _cleared(gnum, f.components, (3, 3))
            bottom = _cleared(gden, f.components, (3, 3))
            assert _vanishes(_sym(num) * bottom - _sym(den) * top, field)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(table_cases())
    def test_table_substitution_is_exact(self, case):
        """P(n/d) = N/D with D = prod_i d_i^deg_i P, term for term."""
        name, f_comps, g_comps = case
        field = TABLE_FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        f = _map(field, ring, f_comps)
        table = multipoly._PowerTable(ring, f.components)
        for P, _ in _map(field, ring, g_comps).components:
            num, den = table.substitute(P)
            degs = [max(P.degree_in(i), 0) for i in range(2)]
            scale = _cleared(ring.one, f.components, degs)
            assert _vanishes(_sym(table.poly(num)) - _cleared(P, f.components, degs), field)
            assert _vanishes(_sym(table.poly(den)) - scale, field)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(table_cases(), st.integers(-3, 3), st.integers(-3, 3))
    def test_substitute_and_evaluate_match_sympy(self, case, u0, v0):
        name, f_comps, g_comps = case
        field = TABLE_FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        line = wd.PolyRing(field, ("u",))
        scalars = wd.PolyRing(field, ())
        values = [_poly(field, line, {(m[0] + m[1],): c for m, c in num.items()})
                  for num, _ in f_comps]
        point = [field.element([u0, 1]), field.element([v0])]
        at_values = [(v, line.one) for v in values]
        at_point = [(scalars.constant(c), scalars.one) for c in point]
        for P, _ in _map(field, ring, g_comps).components:
            assert _vanishes(_sym(P.substitute(values)) - _cleared(P, at_values, (2, 2)),
                             field)
            value = scalars.constant(P.evaluate(point))
            assert _vanishes(_sym(value) - _cleared(P, at_point, (2, 2)), field)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(table_cases())
    def test_composed_normal_forms_match_sympy(self, case):
        """Each generator's numerator under F, modulo <y^3 - x, F's first
        numerator>: the normal form of sympy's numerator."""
        from weildescent.descent import _composed_normal_forms

        name, f_comps, g_comps = case
        field = TABLE_FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        F = _map(field, ring, f_comps)
        gens = [num for num, _ in _map(field, ring, g_comps).components]
        gb = wd.Ideal(ring, [p("y^3 - x", ring), F.components[0][0]]).groebner_basis()
        for P, rem in zip(gens, _composed_normal_forms(gens, F, gb)):
            degs = [max(P.degree_in(i), 0) for i in range(2)]
            theirs = _cleared(P, F.components, degs).rem(_minpoly(field))
            terms = {}
            for (k, *mono), q in theirs.terms():
                vec = terms.setdefault(tuple(mono), [Fraction(0)] * field.degree)
                vec[k] = Fraction(int(q.p), int(q.q))
            terms = {m: v for m, v in terms.items() if any(v)}
            assert rem == wd.normal_form(_poly(field, ring, terms), gb)

    @pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
    def test_cancellation_to_zero(self, name):
        # x^2 - y at (x + a, (x + a)^2) cancels term by term; no zero is stored.
        field = TABLE_FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        gen = field.gen_name
        f = wd.RationalMap(ring, [p(f"x + {gen}", ring), p(f"(x + {gen})^2", ring)])
        g = wd.RationalMap(ring, [p("x^2 - y", ring), p("y - x^2 + 3", ring)])
        table = multipoly._PowerTable(ring, f.components)
        assert table.substitute(g.components[0][0]) == ({}, None)
        composed = wd.compose_map(g, f).components
        assert composed == ((ring.zero, ring.one), (p("3", ring), ring.one))

    @pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
    def test_identity_maps(self, name):
        field = TABLE_FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        gen = field.gen_name
        f = wd.RationalMap(ring, [(p(f"x + {gen}*y", ring), p("y^2 + 1", ring)),
                                  (p(f"{gen}*x^2", ring), p("x - y", ring))])
        ident = wd.identity_map(ring)
        assert wd.compose_map(ident, f).components == f.components
        assert wd.compose_map(f, ident).components == f.components
        assert wd.compose_map(ident, ident).components == ident.components

    def test_substitution_spends_two_steps_per_degree(self, qi):
        # P has degrees 3 and 1: 2 * (3 + 1) steps, whatever its terms and
        # whether or not a denominator is 1.
        ring = wd.PolyRing(qi, ("x", "y", "z"))
        P = p("x^3*y + i*x - 2", ring)
        f = wd.RationalMap(ring, [p("y + 1", ring), (p("x", ring), p("z - i", ring)),
                                  p("x*y", ring)])
        for substitute in (lambda: P.substitute([n for n, _ in f.components]),
                           lambda: multipoly._PowerTable(ring, f.components).substitute(P)):
            budget = [100]
            with _run(budget):
                substitute()
            assert budget == [100 - 8]
        # Polynomial maps: compose_map spends only on g's numerators.
        g = wd.RationalMap(ring, [P, p("x*z^2", ring)])
        budget = [100]
        with _run(budget):
            wd.compose_map(g, wd.RationalMap(ring, [n for n, _ in f.components]))
        assert budget == [100 - 8 - 6]
