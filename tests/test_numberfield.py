from fractions import Fraction

import pytest

import weildescent as wd


class TestFieldConstruction:
    def test_reducible_minpoly_rejected(self):
        # [TRIVIAL] t^2 - 1 = (t-1)(t+1)
        with pytest.raises(wd.InputError):
            wd.NumberField([-1, 0, 1])

    def test_non_monic_rejected(self):
        with pytest.raises(wd.InputError):
            wd.NumberField([1, 0, 2])

    def test_degree_zero_rejected(self):
        with pytest.raises(wd.InputError):
            wd.NumberField([1])

    def test_degree(self, qi, cubic):
        assert qi.degree == 2
        assert cubic.degree == 3


class TestArithmetic:
    def test_i_squared(self, qi):
        # [TRIVIAL] defining relation
        assert qi.gen * qi.gen == qi.rational(-1)

    def test_product_of_conjugates(self, qi):
        # [TRIVIAL] (1+i)(1-i) = 2
        one = qi.one
        assert (one + qi.gen) * (one - qi.gen) == qi.rational(2)

    def test_inverse_oracle(self, qi):
        # [DERIVED] 1/(3+2i) = (3-2i)/13, checked by hand via the norm 9+4=13
        a = qi.element([3, 2])
        inv = a.inverse()
        assert inv == qi.element([Fraction(3, 13), Fraction(-2, 13)])
        assert a * inv == qi.one

    def test_zero_has_no_inverse(self, qi):
        with pytest.raises(wd.ZeroDenominator):
            qi.zero.inverse()

    def test_division_and_subtraction(self, sqrt2):
        s = sqrt2.gen
        # [DERIVED] sqrt2/sqrt2 = 1; (1+sqrt2)(sqrt2-1) = 1 so they are inverses
        assert s / s == sqrt2.one
        a = sqrt2.one + s
        b = s - sqrt2.one
        assert a * b == sqrt2.one
        assert a.inverse() == b

    def test_cubic_reduction(self, cubic):
        # [DERIVED] a^3 = -a^2 + 2a + 1 from t^3 + t^2 - 2t - 1
        a = cubic.gen
        assert a * a * a == -(a * a) + a * 2 + cubic.one

    def test_pow_and_rational_detection(self, qi):
        assert (qi.gen ** 4).is_rational()
        assert not (qi.gen ** 3).is_rational()
        assert (qi.gen ** 2).as_rational() == Fraction(-1)

    def test_str_round_trip(self, qi):
        a = qi.element([Fraction(1, 2), -3])
        ring = wd.PolyRing(qi, ())
        assert wd.parse_poly(str(a), ring).constant_value() == a


class TestGaloisGroup:
    def test_wrong_count_rejected(self, qi):
        with pytest.raises(wd.InputError):
            wd.GaloisGroup(qi, [qi.gen])

    def test_non_root_rejected(self, qi):
        with pytest.raises(wd.InputError):
            wd.GaloisGroup(qi, [qi.gen, qi.one])

    def test_duplicate_rejected(self, qi):
        with pytest.raises(wd.InputError):
            wd.GaloisGroup(qi, [qi.gen, qi.gen])

    def test_roots_close_into_a_group(self, cubic):
        # [DERIVED] applying the generator automorphism three times returns
        # to the identity, so the three root images form a cyclic group.
        a = cubic.gen
        s = a * a - 2
        s2 = s * s - 2
        assert s2 * s2 - 2 == a

    def test_identity_index(self, qi_group, cubic_group):
        assert qi_group.identity_index == 0
        assert cubic_group.identity_index == 0

    def test_composition_table_cyclic(self, cubic_group):
        # [DERIVED] the cubic group is cyclic of order 3
        g = cubic_group
        assert g.compose(1, 1) == 2
        assert g.compose(1, 2) == 0
        assert g.compose(2, 2) == 1
        assert g.inverse_of(1) == 2
        assert g.inverse_of(0) == 0

    def test_apply_is_field_automorphism(self, cubic, cubic_group):
        a = cubic.gen
        x = a * a + a * 3 - 1
        y = a * 2 + 5
        for s in cubic_group:
            ap = cubic_group.apply
            assert ap(s, x * y) == ap(s, x) * ap(s, y)
            assert ap(s, x + y) == ap(s, x) + ap(s, y)

    def test_trace_quadratic(self, qi, qi_group, sqrt2, sqrt2_group):
        # [DERIVED] Tr(a + b*i) = 2a, Tr(c + d*sqrt2) = 2c
        assert qi_group.trace(qi.element([3, 7])) == qi.rational(6)
        assert sqrt2_group.trace(sqrt2.element([-2, 5])) == sqrt2.rational(-4)

    def test_trace_cubic_generator(self, cubic, cubic_group):
        # [DERIVED] the roots of t^3 + t^2 - 2t - 1 sum to -1
        assert cubic_group.trace(cubic.gen) == cubic.rational(-1)

    def test_trace_is_fixed(self, cubic, cubic_group):
        t = cubic_group.trace(cubic.gen * cubic.gen + cubic.gen)
        assert cubic_group.is_fixed(t)
        assert t.is_rational()


class TestTraceReconstruction:
    def test_qi_lambda_values(self, qi, qi_group):
        # [DERIVED] for basis {1, i}: lambda = (1/2, -i/2), since then
        # lam1*Tr(a) + lam2*Tr(i*a) = a for all a.
        basis = wd.power_basis(qi)
        A = wd.basis_matrix(qi_group, basis)
        lam = wd.solve_trace_coefficients(A)
        assert lam[0] == qi.rational(Fraction(1, 2))
        assert lam[1] == qi.element([0, Fraction(-1, 2)])

    @pytest.mark.parametrize("name", ["qi", "cubic"])
    def test_singular_basis_rejected(self, request, name):
        field = request.getfixturevalue(name)
        group = request.getfixturevalue(f"{name}_group")
        one, a = field.one, field.gen
        dependent = {
            "qi": [one + a, (one + a) * 2],
            # the third element is 3*(first) - 2*(second)
            "cubic": [one + a, a * a, one * 3 + a * 3 - a * a * 2],
        }[name]
        with pytest.raises(wd.SingularBasis, match="not a basis of L over Q"):
            wd.basis_matrix(group, dependent)

    def test_reconstruction_cubic(self, cubic, cubic_group):
        basis = wd.power_basis(cubic)
        lam = wd.solve_trace_coefficients(wd.basis_matrix(cubic_group, basis))
        a = cubic.element([Fraction(2, 3), -1, 4])
        rebuilt = cubic.zero
        for lj, ej in zip(lam, basis):
            rebuilt = rebuilt + lj * cubic_group.trace(ej * a)
        assert rebuilt == a
