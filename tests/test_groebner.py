import sys
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.orderings import ProductOrder, grevlex as sympy_grevlex
from sympy.polys.rings import ring as sympy_ring

import weildescent as wd
from tests.conftest import humbert_datum
from weildescent import _pykernel
from weildescent._pykernel import _run
from weildescent.descent import _sigma_stable
from weildescent.groebner import _graph_basis


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

    @pytest.mark.parametrize("drop", [[0], ["w"], ["x", 5]])
    def test_eliminate_takes_names_of_ring_variables(self, qring, drop):
        I = wd.Ideal(qring, [p("y - x^2", qring)])
        with pytest.raises(wd.InputError, match="no variable"):
            wd.eliminate(I, drop)

    @pytest.mark.parametrize("y_image, stable", [("x^2", True), ("i*x^2", False)])
    def test_eliminated_ideal_needs_no_kernel_call(
        self, qi, qi_group, monkeypatch, y_image, stable
    ):
        # [DERIVED] eliminating x from <y - c*x^2, z - x^3> leaves
        # <y^3 - c^3*z^2>: sigma-stable for c = 1, not for c = i.
        ring = wd.PolyRing(qi, ("x", "y", "z"))
        I = wd.Ideal(ring, [p(f"y - {y_image}", ring), p("z - x^3", ring)])
        J = wd.eliminate(I, ["x"])

        def refuse(*args):
            raise AssertionError("a kernel call re-based an eliminated ideal")

        monkeypatch.setattr(sys.modules["weildescent.kernel"], "buchberger", refuse)
        assert len(J.groebner_basis().elements) == 1
        assert _sigma_stable(J, qi_group) is stable

    def test_normal_form_of_zero_needs_no_kernel_call(self, qring, monkeypatch):
        gb = wd.Ideal(qring, [p("x^2 - y", qring)]).groebner_basis()

        def refuse(*args):
            raise AssertionError("the kernel was handed the zero polynomial")

        monkeypatch.setattr(sys.modules["weildescent.kernel"], "normal_form", refuse)
        rem = wd.normal_form(qring.zero, gb)
        assert rem.is_zero() and rem.ring == gb.ring

    def test_saturation_oracle(self, qring):
        # [DERIVED] saturate(<x*y>, x) = <y>
        I = wd.Ideal(qring, [p("x*y", qring)])
        S = wd.saturate(I, p("x", qring))
        assert wd.ideals_equal(S, wd.Ideal(qring, [p("y", qring)]))

    def test_saturation_is_kept(self, qring, monkeypatch):
        I = wd.Ideal(qring, [p("x*y", qring), p("x*z^2 - x", qring)])
        S = wd.saturate(I, p("x*y - x", qring))

        def refuse(*args):
            raise AssertionError("a kernel call saturated the ideal again")

        monkeypatch.setattr(sys.modules["weildescent.kernel"], "buchberger", refuse)
        assert wd.saturate(I, p("x*y - x", qring)) is S

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


SYMPY_XYZ = sympy.symbols("x y z")

QQ_I = sympy.QQ.algebraic_field(sympy.I)
# Q(2 cos(2 pi / 7)): sympy's primitive element has the minimal polynomial
# t^3 + t^2 - 2t - 1 of the cyclic cubic field of conftest.py.
QQ_CUBIC = sympy.QQ.algebraic_field(2 * sympy.cos(2 * sympy.pi / 7))

# Coefficient fields of the random oracle cases: (field, sympy's domain, a
# map from power-basis coefficient vectors to elements of that domain).
ORACLE_FIELDS = {
    "Q": (wd.NumberField([0, 1], gen_name="q0"), sympy.QQ, lambda v: sympy.QQ(v[0])),
    "Q(i)": (wd.NumberField([1, 0, 1], gen_name="i"), QQ_I, lambda v: QQ_I(v[::-1])),
    "cubic": (wd.NumberField([-1, -2, 1, 1], gen_name="a"), QQ_CUBIC,
              lambda v: QQ_CUBIC(v[::-1])),
}

# sympy's name for each of the package's orders in x, y, z; block, with
# split 1, is grevlex in x, then grevlex in y, z.
SYMPY_ORDERS = {
    "lex": "lex",
    "grevlex": "grevlex",
    "block": ProductOrder((sympy_grevlex, lambda m: m[:1]),
                          (sympy_grevlex, lambda m: m[1:])),
}


def package_order(name):
    return wd.MonomialOrder("block", split=1) if name == "block" else wd.MonomialOrder(name)


def oracle_terms(degree):
    """Term dicts in x, y, z: 1-4 terms, each exponent <= 2, coefficient
    vectors (in the power basis 1, i) of small integers."""
    coeff = st.tuples(*[st.integers(-3, 3)] * degree).filter(any)
    mono = st.tuples(*[st.integers(0, 2)] * 3)
    return st.dictionaries(mono, coeff, min_size=1, max_size=4)


def oracle_cases(orders=("lex", "grevlex"), max_gens=3, fields=("Q", "Q(i)")):
    """(field name, order, 1 to max_gens generators, one more polynomial)."""
    def for_field(name):
        terms = oracle_terms(ORACLE_FIELDS[name][0].degree)
        return st.tuples(
            st.just(name),
            st.sampled_from(orders),
            st.lists(terms, min_size=1, max_size=max_gens),
            terms,
        )
    return st.sampled_from(fields).flatmap(for_field)


# Fields of the extension oracle: the package's field and the root that
# sympy adjoins to Q for it.
EXTENSIONS = {
    "Q(i)": (wd.NumberField([1, 0, 1], gen_name="i"), sympy.I),
    "Q(sqrt 2)": (wd.NumberField([-2, 0, 1], gen_name="s"), sympy.sqrt(2)),
    # j^2 = -1/4: the multiplication table has denominator 4, not 1
    "Q(j)": (wd.NumberField([Fraction(1, 4), 0, 1], gen_name="j"), sympy.I / 2),
}


def extension_terms():
    """Term dicts in x, y, z of total degree <= 3: 1-3 terms, coefficient
    vectors (in the power basis 1, root) of small integers."""
    coeff = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    mono = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda m: sum(m) <= 3)
    return st.dictionaries(mono, coeff, min_size=1, max_size=3)


def to_sympy(P: wd.MultiPoly, name):
    _, domain, element = ORACLE_FIELDS[name]
    terms = {m: element(list(c.coeffs)) for m, c in P.terms.items()}
    return sympy.Poly.from_dict(terms, *SYMPY_XYZ, domain=domain)


def from_sympy(poly, ring, drop):
    """The sympy Poly `poly`, free of its first `drop` variables, as a
    MultiPoly in `ring` over the remaining ones."""
    terms = {}
    for mono, c in poly.terms():
        re, im = c.as_real_imag()
        terms[mono[drop:]] = ring.field.element(
            [Fraction(int(v.p), int(v.q)) for v in (re, im)]
        )
    return wd.MultiPoly(ring, terms)


def reduced_terms(I):
    """The reduced basis of I in the package's grevlex order, as term dicts."""
    grevlex = wd.MonomialOrder("grevlex")
    return [g.terms for g in wd.groebner(I, grevlex).elements]


def assert_cached_basis_is_reduced(I):
    """I carries its grevlex basis, equal to one computed from its generators."""
    grevlex = wd.MonomialOrder("grevlex")
    cached = I._gb_cache[grevlex]
    assert cached.divisors == wd.groebner(I, grevlex).divisors


def assert_matches_sympy(name, order, gens, target):
    """The reduced basis of the term dicts gens, and the normal form of
    target modulo it, equal sympy's over the field called name."""
    field, domain, _ = ORACLE_FIELDS[name]
    ring = wd.PolyRing(field, ("x", "y", "z"), package_order(order))

    def poly(terms):
        return wd.MultiPoly(ring, {m: field.element(c) for m, c in terms.items()})

    gb = wd.groebner(wd.Ideal(ring, [poly(g) for g in gens]))
    order = SYMPY_ORDERS[order]
    theirs = sympy.groebner(
        [to_sympy(poly(g), name) for g in gens],
        *SYMPY_XYZ, order=order, domain=domain,
    )
    assert {to_sympy(g, name) for g in gb.elements} == set(theirs.polys)
    assert len(gb.elements) == len(theirs.polys)

    # Division in sympy's polynomial ring: sympy.reduced converts through
    # expressions, which takes seconds over Q(2 cos(2 pi / 7)).
    R = sympy_ring("x y z", domain, order=order)[0]

    def in_ring(P):
        return R.from_dict(to_sympy(P, name).as_dict(native=True))

    f = poly(target)
    rem = in_ring(f).rem([R.from_dict(g.as_dict(native=True)) for g in theirs.polys])
    assert in_ring(wd.normal_form(f, gb)) == rem


class TestAgainstSympy:
    """Independent cross-check of reduced bases and normal forms."""

    CASES = [
        ("grevlex", ["x^2 + y^2 - 1", "x - y^2"]),
        ("grevlex", ["x*y - z^2", "y^2 - x*z", "x^2 - 1"]),
        ("grevlex", ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"]),
        # A 5-element lex basis of degree 13, slow unless pairs are taken
        # by sugar degree.
        ("lex", ["x^2*z^2 - 2*x*y^2 + 3*x*y*z - y^2*z^2",
                 "-3*x^2*y^2*z - 2*x*y^2*z^2 - 2*y*z^2",
                 "x*y^2 - 2*x*y*z^2 - 3*y^2*z^2"]),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_reduced_basis_matches(self, rational_field, case):
        # [DERIVED] oracle: sympy.groebner over QQ in the same order
        order, gens = case
        ring = wd.PolyRing(rational_field, ("x", "y", "z"), wd.MonomialOrder(order))
        I = wd.Ideal(ring, [p(t, ring) for t in gens])
        mine = I.groebner_basis()
        xs = sympy.symbols("x y z")
        sym = sympy.groebner(
            [sympy.sympify(t.replace("^", "**")) for t in gens],
            *xs,
            order=order,
            domain=sympy.QQ,
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

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(oracle_cases())
    def test_random_ideals_match_sympy(self, case):
        """Reduced basis and normal form equal sympy's on a random ideal."""
        assert_matches_sympy(*case)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(oracle_cases(orders=("grevlex",), fields=("cubic",)))
    def test_cubic_field_matches_sympy(self, case):
        """Over the cyclic cubic field, whose products reduce by a degree-3
        table, the reduced grevlex basis and normal form equal sympy's."""
        assert_matches_sympy(*case)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from(sorted(EXTENSIONS)),
        st.sampled_from(["lex", "grevlex"]),
        st.lists(extension_terms(), min_size=1, max_size=3),
        extension_terms(),
    )
    def test_extension_fields_match_sympy(self, name, order, gens, target):
        """Over Q(sqrt 2), Q(i) and Q(j), the reduced basis and the normal
        form equal sympy's, which computes over the extension by the root."""
        field, root = EXTENSIONS[name]
        ring = wd.PolyRing(field, ("x", "y", "z"), wd.MonomialOrder(order))

        def poly(terms):
            return wd.MultiPoly(ring, {m: field.element(c) for m, c in terms.items()})

        def expr(P):
            x, y, z = SYMPY_XYZ
            return sum(
                (sympy.Rational(c.coeffs[0]) + sympy.Rational(c.coeffs[1]) * root)
                * x**a * y**b * z**e
                for (a, b, e), c in P.terms.items()
            )

        gb = wd.groebner(wd.Ideal(ring, [poly(g) for g in gens]))
        theirs = sympy.groebner(
            [expr(poly(g)) for g in gens], *SYMPY_XYZ, order=order, extension=root
        )
        assert {sympy.expand(expr(g)) for g in gb.elements} == {
            sympy.expand(e) for e in theirs.exprs
        }
        assert len(gb.elements) == len(theirs.exprs)

        f = poly(target)
        _, rem = sympy.reduced(
            expr(f), theirs.exprs, *SYMPY_XYZ, order=order, extension=root
        )
        assert sympy.expand(expr(wd.normal_form(f, gb)) - rem) == 0

    # sympy's lex bases of three random generators, or with a fourth,
    # auxiliary variable, can take minutes; two generators in x, y, z take
    # milliseconds.  So saturate is checked against eliminate.
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(oracle_cases(orders=("block",), max_gens=2))
    def test_block_order_elimination_matches_sympy(self, case):
        """eliminate, which runs in a block order, keeps the elements of
        sympy's lex basis free of x; saturate is that elimination of an
        auxiliary variable.  Both results carry their reduced basis."""
        name, _, gens, h = case
        field, domain, _ = ORACLE_FIELDS[name]
        ring = wd.PolyRing(field, ("x", "y", "z"))

        def poly(terms):
            return wd.MultiPoly(ring, {m: field.element(c) for m, c in terms.items()})

        I = wd.Ideal(ring, [poly(g) for g in gens])
        elim = wd.eliminate(I, ["x"])
        lex = sympy.groebner(
            [to_sympy(g, name) for g in I.generators],
            *SYMPY_XYZ, order="lex", domain=domain,
        )
        theirs = [from_sympy(g, elim.ring, 1) for g in lex.polys if g.degree(0) == 0]
        assert reduced_terms(elim) == reduced_terms(wd.Ideal(elim.ring, theirs))
        assert_cached_basis_is_reduced(elim)

        # I : h^oo = (I + <1 - t*h>) ∩ k[x, y, z].
        big = wd.PolyRing(field, ("t", "x", "y", "z"))
        aux = [g.transplant(big) for g in I.generators]
        aux.append(big.one - big.var("t") * poly(h).transplant(big))
        by_hand = wd.eliminate(wd.Ideal(big, aux), ["t"])
        sat = wd.saturate(I, poly(h))
        assert reduced_terms(sat) == reduced_terms(by_hand)
        assert_cached_basis_is_reduced(sat)
        assert_cached_basis_is_reduced(by_hand)


class TestPairCriteria:
    """Inputs at the edges of the criteria that prune S-pairs as each basis
    element is inserted: a generator whose lead is a multiple of another's,
    one given twice, a constant, and a coprime and a non-coprime pair with
    one lcm.  The leads that make each case are the same in lex, grevlex
    and block order."""

    CASES = {
        # x^2*y is a multiple of x*y, the lead of a later generator.
        "redundant": ["x^2*y + z", "y^2 - x*z", "x*y - z^2"],
        "duplicate": ["x*y - z^2", "y^2 - x*z", "x*y - z^2"],
        "constant": ["x^2 - y", "3", "y*z - x"],
        # Leads z^2, y*z^2 and y^3: inserting y^3 meets the coprime pair with
        # z^2 and the pair with y*z^2, both of lcm y^3*z^2.
        "equal_lcm": ["z^2 + z - 1", "y*z^2 - y*z + 2", "y^3 - z^2 + y", "x^2 - y*z"],
    }
    TARGET = "x^3*y + 2*y^2*z - x + 5"

    @staticmethod
    def terms(texts, order):
        ring = wd.PolyRing(ORACLE_FIELDS["Q"][0], ("x", "y", "z"), package_order(order))
        return [p(t, ring).terms for t in texts]

    @pytest.mark.parametrize("order", sorted(SYMPY_ORDERS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_sympy(self, case, order):
        gens = self.terms(self.CASES[case], order)
        target = self.terms([self.TARGET], order)[0]
        to_vector = lambda terms: {m: c.coeffs for m, c in terms.items()}
        assert_matches_sympy("Q", order, list(map(to_vector, gens)), to_vector(target))

    @pytest.mark.parametrize("order", sorted(SYMPY_ORDERS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_generator_order_is_irrelevant(self, case, order):
        # The reduced basis is unique, and the kernel returns it with each
        # element's terms in one order, whatever pairs the criteria kept.
        kernel_order = package_order(order)
        bases = {
            tuple((lead, tuple(terms.items()))
                  for lead, terms in wd.kernel.buchberger(gens, kernel_order, [10**6]))
            for gens in permutations(self.terms(self.CASES[case], order))
        }
        assert len(bases) == 1


def linear_terms(degree):
    """Term dicts in x, y, z of total degree <= 1, coefficients as in
    oracle_terms."""
    coeff = st.tuples(*[st.integers(-3, 3)] * degree).filter(any)
    mono = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return st.dictionaries(mono, coeff, min_size=1, max_size=4)


def linear_cases():
    """(field name, order, one to three linear generators and up to two
    others, one more polynomial): inputs of the kernel's linear step."""
    def for_field(name):
        degree = ORACLE_FIELDS[name][0].degree
        return st.tuples(
            st.just(name),
            st.sampled_from(sorted(SYMPY_ORDERS)),
            st.tuples(
                st.lists(linear_terms(degree), min_size=1, max_size=3),
                st.lists(oracle_terms(degree), max_size=2),
            ).map(lambda lists: lists[0] + lists[1]),
            oracle_terms(degree),
        )
    return st.sampled_from(["Q(i)", "cubic"]).flatmap(for_field)


def humbert_lex_graph_generators(monkeypatch):
    """The generators and order of the lex graph basis of Humbert's R with
    its coordinates in reverse, which pruning reads Y from when R has no
    affine chart: a kernel call in 18 variables."""
    kernel = sys.modules["weildescent.kernel"]
    calls = []

    def recorded(gens, order, budget):
        calls.append((gens, order))
        return buchberger(gens, order, budget)

    datum = humbert_datum()
    R = wd.descend(datum).map
    tnames = tuple(f"t{k + 1}" for k in range(R.target_arity))
    reverse = wd.RationalMap(R.ring, R.components[::-1], normalize=False)
    buchberger = kernel.buchberger
    monkeypatch.setattr(kernel, "buchberger", recorded)
    _graph_basis(reverse, datum.variety.ideal, tnames[::-1], wd.MonomialOrder("lex"))
    monkeypatch.setattr(kernel, "buchberger", buchberger)
    (gens, order), = calls
    assert order.kind == "lex"
    return gens, order


def steps(gens, order):
    """The reduction steps that one kernel call on gens spends."""
    budget = [10**6]
    wd.kernel.buchberger(gens, order, budget)
    return 10**6 - budget[0]


class TestLinearStep:
    """In lex the kernel solves the generators of total degree <= 1 first
    and reduces the others by them.  The reduced basis depends only on the
    ideal, so every order must still give sympy's."""

    # g is the field's generator: i over Q(i), a over the cyclic cubic.
    CASES = {
        "dependent": ["x + y - z", "2*x + 2*y - 2*z", "x - g*y", "y^2 - x*z + g"],
        "constant": ["x^2 - y*z", "g", "x + z"],
        "inconsistent": ["x + y", "x + y + 1", "y^2 - z"],
        "all_linear": ["x + g*y - z", "y - 2*z + 1", "x - z"],
        # x^2 - y*z is 0 modulo x = y = z.
        "becomes_zero": ["x - y", "y - z", "x^2 - y*z"],
        # x^2 - y^2 + x + z - 1 leaves y + z - 1 modulo x = y, which then
        # reduces z^3 - g*y.
        "becomes_linear": ["x - y", "x^2 - y^2 + x + z - 1", "z^3 - g*y"],
    }
    TARGET = "x^3*y + 2*y^2*z - g*x + 5"

    @pytest.mark.parametrize("field", ["Q(i)", "cubic"])
    @pytest.mark.parametrize("order", sorted(SYMPY_ORDERS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_sympy(self, case, order, field):
        ring = wd.PolyRing(ORACLE_FIELDS[field][0], ("x", "y", "z"), package_order(order))
        gen = ring.field.gen_name

        def vector(text):
            terms = p(text.replace("g", gen), ring).terms
            return {m: c.coeffs for m, c in terms.items()}

        assert_matches_sympy(field, order, [vector(t) for t in self.CASES[case]],
                             vector(self.TARGET))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(linear_cases())
    def test_random_linear_inputs_match_sympy(self, case):
        assert_matches_sympy(*case)

    def test_humbert_graph_basis_after_solving_by_hand(self, monkeypatch):
        # Solve the linear generators for their lex-largest variables by
        # Gauss-Jordan elimination and substitute the solution into the
        # others: a different set of generators of the same ideal.
        gens, order = humbert_lex_graph_generators(monkeypatch)
        field = next(iter(gens[0].values())).field
        n = len(next(iter(gens[0])))
        ring = wd.PolyRing(field, tuple(f"v{k}" for k in range(n)), order)
        polys = [wd.MultiPoly(ring, terms) for terms in gens]
        linear = [P for P in polys if P.total_degree() <= 1]
        assert len(linear) >= 4
        unit = [tuple(int(j == k) for j in range(n)) for k in range(n)]
        rows = {}  # pivot variable -> row, monic in it and free of the other pivots
        for P in linear:
            for v, row in rows.items():
                if P.uses_variable(v):
                    P = P - row.scale(P.terms[unit[v]])
            if P.is_zero():
                continue
            v = min(k for k in range(n) if P.uses_variable(k))
            P = P.scale(P.terms[unit[v]].inverse())
            for w, row in rows.items():
                if row.uses_variable(v):
                    rows[w] = row - P.scale(row.terms[unit[v]])
            rows[v] = P
        values = [ring.var(k) - rows[k] if k in rows else ring.var(k) for k in range(n)]
        others = [P.substitute(values) for P in polys if P.total_degree() > 1]
        assert not any(P.uses_variable(v) for P in others for v in rows)
        by_hand = [row.terms for row in rows.values()] + [
            P.terms for P in others if not P.is_zero()]
        assert (wd.kernel.buchberger(by_hand, order, [10**6])
                == wd.kernel.buchberger(gens, order, [10**6]))

    def test_budget_one_step_short(self, monkeypatch):
        gens, order = humbert_lex_graph_generators(monkeypatch)
        total = steps(gens, order)
        budget = [total]
        wd.kernel.buchberger(gens, order, budget)
        assert budget == [0]
        budget = [total - 1]
        with pytest.raises(wd.ResourceLimit):
            wd.kernel.buchberger(gens, order, budget)
        assert budget == [-1]

    def test_overflow_restart_counts_steps_once(self, qi, monkeypatch):
        # Reducing x^8*y^32760 by x = y takes y past the largest exponent
        # that a 16-bit field holds, after some of the 8 steps; the call
        # starts again with 32-bit fields.
        ring = wd.PolyRing(qi, ("x", "y", "z"), wd.MonomialOrder("lex"))
        gens = [p("x^8*y^32760 - z", ring).terms, p("x - y", ring).terms]
        order = ring.order
        widths = []
        packing = _pykernel._packing

        def recorded(order, nvars, width):
            widths.append(width)
            return packing(order, nvars, width)

        monkeypatch.setattr(_pykernel, "_packing", recorded)
        spent = steps(gens, order)
        assert widths == [16, 32]
        monkeypatch.setattr(_pykernel, "_FIRST_WIDTH", 32)
        assert steps(gens, order) == spent == 8


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


class TestLexElimination:
    @pytest.mark.parametrize("gens", [
        ["y - x^2", "z - x^3", "w - x*y + z"],
        ["x^2 + y^2 - 1", "z*x - y", "w^2 - z - x"],
        ["x*y - z^2", "y*w - 2*x", "z^3 - w*x + 1"],
    ])
    def test_basis_eliminates_every_prefix(self, rational_field, gens):
        """The elements of one lex basis that are free of the first j
        variables generate the j-th elimination ideal, for every j."""
        names = ("x", "y", "z", "w")
        ring = wd.PolyRing(rational_field, names, wd.MonomialOrder("lex"))
        I = wd.Ideal(ring, [p(g, ring) for g in gens])
        gb = I.groebner_basis()
        for j in range(len(names)):
            expected = wd.eliminate(I, names[:j])
            rest = expected.ring
            free = [g.transplant(rest) for g in gb.elements
                    if not any(g.uses_variable(k) for k in range(j))]
            assert wd.ideals_equal(wd.Ideal(rest, free), expected)


class TestKernels:
    ORDERS = [wd.MonomialOrder("lex"), wd.MonomialOrder("grevlex"),
              wd.MonomialOrder("block", split=1)]

    @pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex", "block"])
    def test_kernel_basis_matches_groebner(self, qring, order):
        # The kernel called directly returns the elements of wd.groebner,
        # each with its largest monomial as its lead.
        from weildescent import _pykernel

        gens = [p("x^2 + y*z - 1", qring), p("y^2 - x*z", qring)]
        dicts = [g.terms for g in gens]
        py = _pykernel.buchberger(dicts, order, [10**6])
        active = wd.groebner(wd.Ideal(qring, gens), order)
        assert [terms for _, terms in py] == [g.terms for g in active.elements]
        for lead, terms in py:
            assert lead == max(terms, key=order.key)

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_kernel_returns_elements_of_the_input_field(self, name):
        # Inside a call coefficients are (num, den) pairs; both entry points
        # hand back elements of the input's field object, in lowest terms.
        from weildescent import kernel

        field, _ = EXTENSIONS[name]
        ring = wd.PolyRing(field, ("x", "y", "z"))
        third = field.element([Fraction(1, 3), Fraction(-2, 5)])
        gens = [p("x^2 + y*z - 1", ring).scale(third),
                p("y^2 - x*z", ring).scale(field.gen)]
        basis = kernel.buchberger([g.terms for g in gens], ring.order, [10**6])
        target = p("x^3 + 7*y - z", ring).scale(third)
        rem = kernel.normal_form(target.terms, basis, ring.order, [10**6])
        coeffs = [c for _, terms in basis for c in terms.values()]
        coeffs += list(rem.values())
        assert basis and rem
        for c in coeffs:
            assert type(c) is wd.NumberFieldElement and c.field is field
            num, den = c.pair
            assert type(num) is tuple and all(type(v) is int for v in num)
            assert den > 0 and gcd(den, *num) == 1

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from([("lex", None), ("grevlex", None), ("block", 1),
                         ("block", 2), ("block", 3)]),
        st.sampled_from([16, 32]),
        st.data(),
    )
    def test_int_key_orders_as_the_tuple_key(self, kind, width, data):
        # Any two monomials that fit the fields, up to the largest exponent,
        # compare by the kernel's int key as by MonomialOrder.key.
        from weildescent import _pykernel

        order = wd.MonomialOrder(*kind)
        nvars = 4
        top = (1 << (width - 1)) - 1
        exps = st.one_of(st.integers(0, 3), st.just(top), st.integers(0, top))
        mono = st.tuples(*[exps] * nvars)
        a, b = data.draw(mono), data.draw(mono)
        pk = _pykernel._packing(order, nvars, width)

        def int_key(e):
            return -sum(x * w for x, w in zip(e, pk.weights))

        assert (int_key(a) < int_key(b)) == (order.key(a) < order.key(b))
        assert (int_key(a) == int_key(b)) == (a == b)
        assert pk.unpack(pk.pack(a)) == a

    @staticmethod
    def lex_ring(rational_field):
        return wd.PolyRing(rational_field, ("y", "x"), wd.MonomialOrder("lex"))

    @pytest.mark.parametrize("k, n", [(2, 2**31), (3, 30000)])
    def test_exponent_outgrowing_its_field(self, rational_field, k, n):
        # y^k reduces to x^(k*n) modulo y - x^n in k steps.  x^(2^31) does
        # not fit a 32-bit field with its guard bit.  x^30000 fits 16 bits,
        # but the second step's product x^60000 does not, so that call starts
        # again, and the budget counts each step once.
        ring = self.lex_ring(rational_field)
        one = rational_field.one
        gb = wd.Ideal(ring, [wd.MultiPoly(ring, {(1, 0): one, (0, n): -one})]
                      ).groebner_basis()
        P = p(f"y^{k}", ring)  # parsed outside the run: its products are charged
        budget = [100]
        with _run(budget):
            rem = wd.normal_form(P, gb)
        assert rem.terms == {(0, k * n): one}
        assert budget == [100 - k]

    def test_s_polynomial_outgrowing_its_field(self, rational_field, monkeypatch):
        # The S-polynomial of y - x^30000 and y^2*x^3000 - 1 multiplies the
        # first by y*x^3000, past a 16-bit field; <y - x^30000, x^63000 - 1>
        # is the same ideal, and its lex basis.  No monomial with a guard
        # bit set reaches a reduction or leaves one.
        from weildescent import _pykernel

        reduce = _pykernel._reduce

        def fitting(f, basis, pk, nf, budget):
            f = list(f)
            assert not any(m & pk.guard for _, m, _ in f)
            rem = reduce(f, basis, pk, nf, budget)
            assert not any(m & pk.guard for _, m, _ in rem)
            return rem

        monkeypatch.setattr(_pykernel, "_reduce", fitting)
        ring = self.lex_ring(rational_field)
        one = rational_field.one
        gens = [wd.MultiPoly(ring, {(1, 0): one, (0, 30000): -one}),
                wd.MultiPoly(ring, {(2, 3000): one, (0, 0): -one})]
        gb = wd.groebner(wd.Ideal(ring, gens))
        assert [g.terms for g in gb.elements] == [
            {(0, 63000): one, (0, 0): -one}, {(1, 0): one, (0, 30000): -one}
        ]

    @pytest.mark.parametrize("n", [2**41 + 1, 2**70])
    def test_huge_exponents_come_back_unchanged(self, rational_field, n):
        # Leads x^n and y^3 share no variable: the basis is its generators,
        # monic.  2^70 is past the widest fields struct packs.
        ring = self.lex_ring(rational_field)
        one = rational_field.one
        gens = [wd.MultiPoly(ring, {(0, n): one, (1, 0): one}),
                wd.MultiPoly(ring, {(3, 0): one, (0, 0): -one})]
        gb = wd.groebner(wd.Ideal(ring, gens), wd.MonomialOrder("grevlex"))
        assert len(gb.elements) == 2
        assert {frozenset(g.terms.items()) for g in gb.elements} == {
            frozenset(g.terms.items()) for g in gens
        }
