import functools
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import weildescent as wd
from weildescent import numberfield
from weildescent.numberfield import _poly_is_irreducible


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

    def test_generator_built_once(self, qi, cubic, rational_field):
        for field in (qi, cubic, rational_field):
            assert field.gen is field.gen
        assert qi.gen.coeffs == (0, 1)
        assert cubic.gen.coeffs == (0, 1, 0)
        # Over Q the generator is the root of the degree-1 minpoly t + c0.
        assert rational_field.gen == rational_field.rational(0)
        assert wd.NumberField([Fraction(-3, 2), 1]).gen.coeffs == (Fraction(3, 2),)


def _sympy_is_irreducible(coeffs):
    t = sympy.Symbol("t")
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t
    ).is_irreducible


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monic(lo, hi):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    return st.integers(lo, hi).flatmap(
        lambda m: st.lists(coeff, min_size=m, max_size=m)
    ).map(lambda cs: cs + [Fraction(1)])


class TestIrreducibility:
    @pytest.mark.parametrize("coeffs, irreducible", [
        # irreducible, yet reducible modulo every prime
        pytest.param([1, 0, -10, 0, 1], True, id="sqrt2+sqrt3"),
        pytest.param([1, 0, 0, 0, 1], True, id="phi8"),
        pytest.param([1, 0, -1, 0, 1], True, id="phi12"),
        pytest.param([1, -1, 0, 1, -1, 1, 0, -1, 1], True, id="phi15"),
        pytest.param([108, 0, 0, 0, 0, 0, 1], True, id="x6+108"),
        pytest.param([576, 0, -960, 0, 352, 0, -40, 0, 1], True,
                     id="sqrt2+sqrt3+sqrt5"),
        # reducible with no rational root
        pytest.param([4, 0, 0, 0, 1], False, id="(x2+2x+2)(x2-2x+2)"),
        pytest.param([2, 0, 3, 0, 1], False, id="(x2+1)(x2+2)"),
        # a product of two quadratics that split further
        pytest.param([9, 0, -10, 0, 1], False, id="(x2-1)(x2-9)"),
        # not squarefree
        pytest.param([1, 0, 2, 0, 1], False, id="(x2+1)^2"),
        pytest.param([1, 2, 1], False, id="(x+1)^2"),
        # squarefree, but not modulo 3, which divides the discriminant -12
        pytest.param([3, 0, 1], True, id="x2+3"),
        # not integral
        pytest.param([Fraction(-1, 4), 0, 1], False, id="t2-1/4"),
    ])
    def test_pinned(self, coeffs, irreducible):
        # [DERIVED] each id names the factorisation, or the generator whose
        # minimal polynomial it is
        assert _poly_is_irreducible([Fraction(c) for c in coeffs]) is irreducible

    @pytest.mark.parametrize("coeffs, squarefree_mod_3", [
        ([1, 0, 1], True),
        ([-1, -2, 1, 1], True),
        ([3, 0, 1], False),
        ([1, 2, 1], False),
        ([1, 0, 2, 0, 1], False),
    ])
    def test_rational_gcd_only_when_not_squarefree_mod_3(
            self, coeffs, squarefree_mod_3, monkeypatch):
        calls = []
        coprime = numberfield._rational_coprime

        def counted(a, b):
            calls.append(a)
            return coprime(a, b)

        monkeypatch.setattr(numberfield, "_rational_coprime", counted)
        _poly_is_irreducible([Fraction(c) for c in coeffs])
        assert len(calls) == (0 if squarefree_mod_3 else 1)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.one_of(
        _monic(2, 8),
        st.tuples(_monic(1, 4), _monic(1, 4)).map(lambda ab: _times(*ab)),
    ))
    def test_matches_sympy(self, coeffs):
        assert _poly_is_irreducible(coeffs) == _sympy_is_irreducible(coeffs)


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
        assert cubic_group.nontrivial == (1, 2)

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

    def test_identity_listed_second(self, qi):
        # [DERIVED] with the images listed as [-i, i] the identity is row 1,
        # and lambda is still (1/2, -i/2); solving for row 0 instead would
        # give (1/2, i/2), which rebuilds -i from P = i.
        group = wd.GaloisGroup(qi, [-qi.gen, qi.gen])
        assert group.identity_index == 1
        assert group.nontrivial == (0,)
        basis = wd.power_basis(qi)
        lam = wd.solve_trace_coefficients(wd.basis_matrix(group, basis))
        assert lam == (qi.rational(Fraction(1, 2)), qi.element([0, Fraction(-1, 2)]))
        for p in (qi.gen, qi.element([3, Fraction(-2, 7)])):
            rebuilt = qi.zero
            for lj, ej in zip(lam, basis):
                rebuilt = rebuilt + lj * group.trace(ej * p)
            assert rebuilt == p

    def test_reconstruction_cubic(self, cubic, cubic_group):
        basis = wd.power_basis(cubic)
        lam = wd.solve_trace_coefficients(wd.basis_matrix(cubic_group, basis))
        a = cubic.element([Fraction(2, 3), -1, 4])
        rebuilt = cubic.zero
        for lj, ej in zip(lam, basis):
            rebuilt = rebuilt + lj * cubic_group.trace(ej * a)
        assert rebuilt == a


# -- oracle: the arithmetic against plain Fraction vectors --------------------
#
# Each field is (minimal polynomial, generator, images of the generator), all
# as Fraction coordinate vectors written out here, so that the reference below
# shares nothing with the module under test.

ORACLE_FIELDS = {
    "Q": ([0, 1], "q", [[0]]),
    "Q(i)": ([1, 0, 1], "i", [[0, 1], [0, -1]]),
    "Q(sqrt2)": ([-2, 0, 1], "s", [[0, 1], [0, -1]]),
    # a -> a^2 - 2 -> -a^2 - a + 1
    "cubic": ([-1, -2, 1, 1], "a", [[0, 1, 0], [-2, 0, 1], [1, -1, -1]]),
    # z -> z^k, k = 1..4
    "Q(zeta5)": ([1, 1, 1, 1, 1], "z",
                 [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]]),
    # j^2 = -1/4: a minimal polynomial whose coefficients are not integers
    "Q(j)": ([Fraction(1, 4), 0, 1], "j", [[0, 1], [0, -1]]),
}


@functools.cache
def _oracle_field(name):
    minpoly, gen, images = ORACLE_FIELDS[name]
    field = wd.NumberField(minpoly, gen_name=gen)
    return field, wd.GaloisGroup(field, [field.element(v) for v in images])


def _ref(vec, m):
    return [Fraction(c) for c in vec] + [Fraction(0)] * (m - len(vec))


def _ref_mul(minpoly, a, b):
    m = len(minpoly) - 1
    prod = _times(a, b)
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        for i in range(m + 1):
            prod[k - m + i] -= c * minpoly[i]
    return prod[:m]


def _ref_inv(minpoly, a):
    """Solve M y = e_0, where column j of M is a * gen^j."""
    m = len(minpoly) - 1
    cols = [_ref_mul(minpoly, a, _ref([0] * j + [1], m)) for j in range(m)]
    rows = [[cols[j][i] for j in range(m)] + [Fraction(int(i == 0))]
            for i in range(m)]
    for k in range(m):
        p = next(i for i in range(k, m) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(m):
            if i != k:
                rows[i] = [v - rows[i][k] * w for v, w in zip(rows[i], rows[k])]
    return [row[m] for row in rows]


def _ref_pow(minpoly, a, n):
    m = len(minpoly) - 1
    if n < 0:
        a, n = _ref_inv(minpoly, a), -n
    out = _ref([1], m)
    for _ in range(n):
        out = _ref_mul(minpoly, out, a)
    return out


def _ref_apply(minpoly, image, a):
    m = len(minpoly) - 1
    out = _ref([], m)
    for k, c in enumerate(a):
        power = _ref_pow(minpoly, _ref(image, m), k)
        out = [x + c * y for x, y in zip(out, power)]
    return out


def _ref_str(vec, gen):
    terms = []
    for k, c in enumerate(vec):
        if not c:
            continue
        mono = "" if k == 0 else gen if k == 1 else f"{gen}^{k}"
        if not mono:
            terms.append(str(c))
        elif abs(c) == 1:
            terms.append(("-" if c < 0 else "") + mono)
        else:
            terms.append(f"{c}*{mono}")
    if not terms:
        return "0"
    return terms[0] + "".join(
        f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in terms[1:]
    )


def _oracle_vectors(m):
    small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    wide = st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6)
    coord = st.one_of(st.just(Fraction(0)), small, wide)
    return st.lists(coord, min_size=m, max_size=m)


def _assert_matches(x, ref):
    """x equals the reference vector and is in canonical form."""
    assert x.coeffs == tuple(ref)
    num, den = x.pair
    assert len(num) == x.field.degree
    assert all(type(v) is int for v in num) and type(den) is int
    assert den > 0
    assert gcd(den, *num) == 1


ORACLE_NAMES = sorted(ORACLE_FIELDS)


class TestArithmeticOracle:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_ring_operations(self, name, data):
        field, _ = _oracle_field(name)
        minpoly = field.minpoly
        a = data.draw(_oracle_vectors(field.degree))
        b = data.draw(_oracle_vectors(field.degree))
        x, y = field.element(a), field.element(b)
        _assert_matches(x, a)
        _assert_matches(x + y, [u + v for u, v in zip(a, b)])
        _assert_matches(x - y, [u - v for u, v in zip(a, b)])
        _assert_matches(-x, [-u for u in a])
        _assert_matches(x * y, _ref_mul(minpoly, a, b))
        assert (x == y) == (a == b)
        # the same value reached two ways has one representation
        for one, other in [(x * y, y * x), ((x + y) - y, x), (x - x, field.zero)]:
            assert one == other
            assert hash(one) == hash(other)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_pair_arithmetic(self, name, data):
        # The field's functions on bare (num, den) pairs, as the Groebner
        # kernel calls them.  Half the operands are rational, which takes the
        # shortcut of the degree-2 forms when both are.
        field, _ = _oracle_field(name)
        minpoly, m = field.minpoly, field.degree

        def operand():
            a = data.draw(_oracle_vectors(m))
            if data.draw(st.booleans()):
                a = a[:1] + [Fraction(0)] * (m - 1)
            x = field.element(a)
            return a, x.pair

        (a, pa), (b, pb) = operand(), operand()
        results = [
            (field.pair_mul(pa, pb), _ref_mul(minpoly, a, b)),
            (field.pair_add(pa, pb), [u + v for u, v in zip(a, b)]),
            (field.pair_sub(pa, pb), [u - v for u, v in zip(a, b)]),
            (field.pair_neg(pa), [-u for u in a]),
        ]
        if any(a):
            results.append((field.pair_inv(pa), _ref_inv(minpoly, a)))
        else:
            with pytest.raises(wd.ZeroDenominator):
                field.pair_inv(pa)
        for (num, den), ref in results:
            assert [Fraction(v, den) for v in num] == ref
            assert type(num) is tuple and len(num) == m
            assert all(type(v) is int for v in num) and type(den) is int
            assert den > 0
            assert gcd(den, *num) == 1

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_inverse_and_powers(self, name, data):
        field, _ = _oracle_field(name)
        minpoly = field.minpoly
        a = data.draw(_oracle_vectors(field.degree).filter(any))
        n = data.draw(st.integers(-3, 4))
        x = field.element(a)
        _assert_matches(x.inverse(), _ref_inv(minpoly, a))
        _assert_matches(x ** n, _ref_pow(minpoly, a, n))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_printing_and_rationality(self, name, data):
        field, _ = _oracle_field(name)
        a = data.draw(_oracle_vectors(field.degree))
        if data.draw(st.booleans()):
            a = a[:1] + [Fraction(0)] * (field.degree - 1)
        x = field.element(a)
        assert str(x) == _ref_str(a, field.gen_name)
        assert x.is_rational() == (not any(a[1:]))
        if x.is_rational():
            assert x.as_rational() == a[0]
            assert x == a[0]
            assert field.rational(a[0]) == x

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_galois_apply_and_trace(self, name, data):
        field, group = _oracle_field(name)
        minpoly = field.minpoly
        images = ORACLE_FIELDS[name][2]
        a = data.draw(_oracle_vectors(field.degree))
        x = field.element(a)
        conjugates = [_ref_apply(minpoly, im, a) for im in images]
        for sigma, ref in enumerate(conjugates):
            _assert_matches(group.apply(sigma, x), ref)
        _assert_matches(group.trace(x), [sum(c) for c in zip(*conjugates)])


def test_arithmetic_constructs_no_fraction(monkeypatch):
    # Fractions appear only where coordinates enter or leave an element.
    field, group = _oracle_field("Q(j)")
    x = field.element([Fraction(2, 3), Fraction(-5, 7)])
    y = field.element([Fraction(1, 6), 4])

    class Refused(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(numberfield, "Fraction", Refused)
    x * y, x + y, x - y, -x, x.inverse(), x ** -2
    group.apply(1, x), group.trace(x)
