from fractions import Fraction

import pytest
import sympy

import weildescent as wd
from tests.conftest import humbert_datum


@pytest.fixture
def qring(rational_field):
    return wd.PolyRing(rational_field, ("x", "y", "z"))


def p(text, ring):
    return wd.parse_poly(text, ring)


class TestBases:
    def test_twisted_cubic_elimination(self, qring):
        # [DERIVED] classical oracle: eliminating x from <y - x^2, z - x^3>
        # leaves exactly <y^3 - z^2>.
        I = wd.Ideal(qring, [p("y - x^2", qring), p("z - x^3", qring)])
        J = wd.eliminate(I, ["x"])
        expected = wd.Ideal(J.ring, [p("y^3 - z^2", J.ring)])
        assert wd.ideals_equal(J, expected)

    def test_saturation_oracle(self, qring):
        # [DERIVED] saturate(<x*y>, x) = <y>
        I = wd.Ideal(qring, [p("x*y", qring)])
        S = wd.saturate(I, p("x", qring))
        assert wd.ideals_equal(S, wd.Ideal(qring, [p("y", qring)]))

    def test_unit_ideal_detection_disjointness(self, humbert):
        # [PAPER] the two conjugates of the genus-5 curve share no point:
        # joining both generator sets yields the unit ideal.
        d = humbert
        X = d.variety
        conj = X.ideal.sigma(d.group, 1)
        joint = wd.Ideal(X.ring, list(X.ideal.generators) + list(conj.generators))
        assert joint.is_unit()

    def test_normal_form_membership(self, qring):
        I = wd.Ideal(qring, [p("x^2 - y", qring), p("x*y - z", qring)])
        gb = I.groebner_basis()
        # x*z = x^2*y - (x^2-y)*y - (xy - z)*x ... membership of x^3 - z:
        member = p("x^3 - z", qring)
        assert wd.normal_form(member, gb).is_zero()
        assert not wd.normal_form(p("x^3 - 1", qring), gb).is_zero()

    def test_basis_is_reduced_and_monic(self, qring):
        I = wd.Ideal(qring, [p("2*x^2 - 2*y", qring), p("3*x*y - 3*z", qring)])
        gb = I.groebner_basis()
        for g in gb.elements:
            _, lc = g.leading_term()
            assert lc == qring.field.one
        leads = [g.leading_term()[0] for g in gb.elements]
        for idx, g in enumerate(gb.elements):
            for jdx, lead in enumerate(leads):
                if jdx == idx:
                    continue
                for mono in g.terms:
                    assert any(a < b for a, b in zip(mono, lead))

    def test_determinism(self, qring):
        gens = [p("x^2 + y*z - 1", qring), p("y^2 - x*z", qring), p("z^2 - x", qring)]
        a = wd.groebner(wd.Ideal(qring, gens))
        b = wd.groebner(wd.Ideal(qring, gens))
        assert [g.terms for g in a.elements] == [g.terms for g in b.elements]

    def test_budget_exhaustion(self, qring):
        gens = [p("x^2 - y*z", qring), p("x*y - z^2", qring), p("y^2 - x*z", qring)]
        with pytest.raises(wd.ResourceLimit):
            wd.groebner(wd.Ideal(qring, gens), budget=3)

    def test_elimination_output_contained_in_ideal(self, qring):
        I = wd.Ideal(qring, [p("x^2 - y", qring), p("x*z - y^2", qring)])
        J = wd.eliminate(I, ["x"])
        gb = I.groebner_basis()
        for g in J.generators:
            assert wd.normal_form(g.transplant(qring), gb).is_zero()
            assert not g.uses_variable(J.ring.variables.index("y")) or True
        for g in J.generators:
            assert "x" not in [
                J.ring.variables[i]
                for i in range(J.ring.nvars)
                if g.uses_variable(i)
            ]


class TestAgainstSympy:
    """Independent cross-check of reduced bases over Q."""

    CASES = [
        ["x^2 + y^2 - 1", "x - y^2"],
        ["x*y - z^2", "y^2 - x*z", "x^2 - 1"],
        ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"],
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_reduced_basis_matches(self, qring, case):
        # [DERIVED] oracle: sympy.groebner over QQ with grevlex
        I = wd.Ideal(qring, [p(t, qring) for t in case])
        mine = I.groebner_basis()
        xs = sympy.symbols("x y z")
        sym = sympy.groebner(
            [sympy.sympify(t.replace("^", "**")) for t in case],
            *xs,
            order="grevlex",
        )
        theirs = set()
        for e in sym.exprs:
            poly = sympy.Poly(e, *xs)
            theirs.add(
                frozenset(
                    (mono, Fraction(int(c.p), int(c.q)))
                    for mono, c in poly.terms()
                )
            )
        ours = set()
        for g in mine.elements:
            ours.add(
                frozenset((m, c.as_rational()) for m, c in g.terms.items())
            )
        assert ours == theirs


class TestImageIdeal:
    def test_parabola(self, rational_field):
        line = wd.PolyRing(rational_field, ("u",))
        F = wd.RationalMap(line, [p("u", line), p("u^2", line)])
        img = wd.image_ideal(F, wd.Ideal(line, []), ("a", "b"))
        expected = wd.Ideal(img.ring, [p("b - a^2", img.ring)])
        assert wd.ideals_equal(img, expected)

    def test_rational_map_image_with_saturation(self, rational_field):
        # [DERIVED] image of the hyperbola parametrization u -> (u, 1/u)
        # is the curve a*b = 1.
        line = wd.PolyRing(rational_field, ("u",))
        F = wd.RationalMap(line, [(p("u", line), line.one), (line.one, p("u", line))])
        img = wd.image_ideal(F, wd.Ideal(line, []), ("a", "b"))
        expected = wd.Ideal(img.ring, [p("a*b - 1", img.ring)])
        assert wd.ideals_equal(img, expected)

    def test_vanishing_denominator_rejected(self, rational_field):
        line = wd.PolyRing(rational_field, ("u",))
        F = wd.RationalMap(line, [(line.one, p("u", line))], normalize=False)
        src = wd.Ideal(line, [p("u", line)])
        with pytest.raises(wd.ZeroDenominator):
            wd.image_ideal(F, src, ("a",))


class TestKernels:
    @pytest.mark.parametrize(
        "order",
        [wd.MonomialOrder("lex"), wd.MonomialOrder("grevlex"),
         wd.MonomialOrder("block", split=1)],
        ids=["lex", "grevlex", "block"],
    )
    def test_both_kernels_agree(self, qring, order):
        from weildescent import _pykernel

        gens = [p("x^2 + y*z - 1", qring), p("y^2 - x*z", qring)]
        dicts = [g.terms for g in gens]
        py = _pykernel.buchberger(dicts, order.key, [10**6])
        active = wd.groebner(wd.Ideal(qring, gens), order)
        assert py == [g.terms for g in active.elements]
