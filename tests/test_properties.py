"""Randomized algebraic-law tests for field elements, polynomials, and traces."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import weildescent as wd


QI = wd.NumberField([1, 0, 1], gen_name="i")
SQRT2 = wd.NumberField([-2, 0, 1], gen_name="s")
CUBIC = wd.NumberField([-1, -2, 1, 1], gen_name="a")
ZETA5 = wd.NumberField([1, 1, 1, 1, 1], gen_name="z")

QI_GROUP = wd.GaloisGroup(QI, [QI.gen, -QI.gen])
SQRT2_GROUP = wd.GaloisGroup(SQRT2, [SQRT2.gen, -SQRT2.gen])
_A = CUBIC.gen
_A2 = _A * _A - CUBIC.element([2])
CUBIC_GROUP = wd.GaloisGroup(CUBIC, [_A, _A2, _A2 * _A2 - CUBIC.element([2])])

FIELDS = {
    "qi": (QI, QI_GROUP),
    "sqrt2": (SQRT2, SQRT2_GROUP),
    "cubic": (CUBIC, CUBIC_GROUP),
}

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def elements(field):
    return st.lists(
        rationals, min_size=field.degree, max_size=field.degree
    ).map(field.element)


def make_poly(ring, terms):
    """terms: list of (exponent tuple, coefficient-vector tuple)."""
    p = ring.zero
    for exps, coeffs in terms:
        mono = ring.one
        for name, e in zip(ring.variables, exps):
            mono = mono * ring.var(name) ** e
        p = p + mono * ring.constant(ring.field.element(coeffs))
    return p


def polys(ring):
    term = st.tuples(
        st.lists(st.integers(0, 3), min_size=ring.nvars, max_size=ring.nvars),
        st.lists(rationals, min_size=ring.field.degree,
                 max_size=ring.field.degree),
    )
    return st.lists(term, min_size=0, max_size=5).map(
        lambda ts: make_poly(ring, ts)
    )


class TestInverse:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([CUBIC, ZETA5]), st.data())
    def test_inverse_is_two_sided(self, field, data):
        a = data.draw(elements(field).filter(lambda x: not x.is_zero()))
        inv = a.inverse()
        assert len(inv.coeffs) == field.degree
        assert a * inv == field.one
        assert inv * a == field.one


class TestTraceReconstruction:
    """Every element equals the dual-basis combination of its basis traces."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.data())
    def test_element_reconstruction(self, name, data):
        field, group = FIELDS[name]
        x = data.draw(elements(field))
        basis = wd.power_basis(field)
        lam = wd.solve_trace_coefficients(wd.basis_matrix(group, basis))
        rebuilt = field.zero
        for l, e in zip(lam, basis):
            rebuilt = rebuilt + l * group.trace(e * x)
        assert rebuilt == x

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.data())
    def test_trace_is_rational_and_fixed(self, name, data):
        field, group = FIELDS[name]
        x = data.draw(elements(field))
        t = group.trace(x)
        assert t.is_rational()
        for sigma in range(group.order):
            assert group.apply(sigma, t) == t


class TestSigmaAction:
    """The coefficientwise Galois action is a ring homomorphism on polynomials."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.integers(0, 5), st.data())
    def test_ring_homomorphism(self, name, sigma_seed, data):
        field, group = FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        sigma = sigma_seed % group.order
        p = data.draw(polys(ring))
        q = data.draw(polys(ring))
        assert p.sigma(group, sigma) + q.sigma(group, sigma) == (p + q).sigma(
            group, sigma
        )
        assert p.sigma(group, sigma) * q.sigma(group, sigma) == (p * q).sigma(
            group, sigma
        )

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)),
           st.integers(0, 5), st.integers(0, 5), st.data())
    def test_composition_law(self, name, s1, s2, data):
        field, group = FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        a = s1 % group.order
        b = s2 % group.order
        p = data.draw(polys(ring))
        left = p.sigma(group, b).sigma(group, a)
        right = p.sigma(group, group.compose(b, a))
        assert left == right

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.data())
    def test_identity_acts_trivially(self, name, data):
        field, group = FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        p = data.draw(polys(ring))
        assert p.sigma(group, group.identity_index) == p


class TestPolynomialTrace:
    """poly_trace produces Galois-fixed (hence rational) polynomials, linearly."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.data())
    def test_trace_is_fixed_and_rational(self, name, data):
        field, group = FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        p = data.draw(polys(ring))
        tr = wd.poly_trace(p, group)
        for sigma in range(group.order):
            assert tr.sigma(group, sigma) == tr
        assert tr.has_rational_coefficients()

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.data())
    def test_trace_is_additive(self, name, data):
        field, group = FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y"))
        p = data.draw(polys(ring))
        q = data.draw(polys(ring))
        assert wd.poly_trace(p + q, group) == wd.poly_trace(
            p, group
        ) + wd.poly_trace(q, group)
