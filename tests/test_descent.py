import gc
import sys
from fractions import Fraction

import pytest

import weildescent as wd
from tests.conftest import DOCUMENTED_FIXTURES, humbert_datum, read_fixture
from weildescent import descent
from weildescent.descent import _conjugates_disjoint, _sigma_stable
from weildescent.groebner import _fresh_name, _graph_basis
from weildescent.kernel import DEFAULT_BUDGET
from weildescent.problemfile import (
    load_claimed_model_text,
    load_problem_text,
    render_result,
)


# The points 0 and a over the splitting field of x^3 - 2 (group S3), with
# a = 2^(1/3) + (-1 + sqrt(-3))/2 and f_sigma(x) = sigma(a)/a * x.  All six
# conjugates meet at 0.
_S3_IMAGES = [
    "a",
    "3 + a - 4/3*a^2 + 4/3*a^3 + 2/3*a^4 + 4/9*a^5",
    "2 + 4/3*a^3 + 2/3*a^4 + 1/3*a^5",
    "-1 + 4/3*a^2 - 1/9*a^5",
    "-2 - a - 2/3*a^2 - 2/3*a^3 - 1/3*a^4 - 1/9*a^5",
    "-5 - a + 2/3*a^2 - 2*a^3 - a^4 - 5/9*a^5",
]
S3_ORIGIN_POINTS = "\n".join(
    ["[field]", "minpoly = t^6 + 3*t^5 + 6*t^4 + 3*t^3 + 9*t + 9", "generator = a",
     "[galois]"]
    + [f"g{k} = {image}" for k, image in enumerate(_S3_IMAGES)]
    + ["[variety]", "variables = x1", "equation = x1^2 - a*x1"]
    + [line for k, image in enumerate(_S3_IMAGES[1:], 1) for line in (
        f"[datum.g{k}]", f"component = ({image})*x1", "denominator = a")]
)


# The Q(i) space curve that perfbench's quadratic-prune workload generates
# at seed 1.
QUADRATIC_PRUNE_CURVE = """\
[field]
minpoly = t^2 + 1
generator = i

[galois]
e = i
conj = -i

[variety]
variables = x1, x2, x3
equation = (-1/2*i)*x1^2 + 2*x2^2 + (-3/5 - 6/5*i)*x3 - 3
equation = (-1/2 + 1/2*i)*x1*x2 + (-3/25 + 4/25*i)*x3^2 + (-3/2 + 3/2*i)*x1 + 2

[datum.conj]
component = (-i)*x1
component = x2
component = (-3/5 + 4/5*i)*x3
"""

# A point over Q(i) whose model is one rational point: pruning drops every
# coordinate but t1.
CONJUGATE_POINT = """\
[field]
minpoly = t^2 + 1
generator = i

[galois]
e = i
conj = -i

[variety]
variables = x1, x2
equation = x1 - i
equation = x2 - 1 - i

[datum.conj]
component = -x1
component = x2 - 2*x1
"""

# Each text with the coordinates its pruning drops.  On the curve t3 and
# t2 are kept, so t1 is tested after a kept coordinate; at the point every
# candidate drops.
PRUNE_TEXTS = {
    "curve-Qi": (QUADRATIC_PRUNE_CURVE, ("t9", "t8", "t7", "t6", "t5", "t4", "t1")),
    "point-Qi": (CONJUGATE_POINT, ("t5", "t4", "t3", "t2")),
}

# Y with one coordinate moved to last place, where it is tested first, and
# the coordinates its pruning drops.  twisted_conic keeps t5 at once;
# Humbert drops t4, t14 and t13, then keeps t12.
PRUNE_MOVED_LAST = {
    ("twisted_conic", "t5"): ("t9", "t8", "t7", "t6", "t4", "t2", "t1"),
    ("humbert", "t4"): ("t4", "t14", "t13", "t11", "t10", "t9", "t8", "t7", "t6", "t5"),
}

# Each problem file that a committed document is written from, in the ring
# order it is written in, the texts above and the moved Y: pruning is
# checked on each.
PRUNE_ORACLE_CASES = sorted(
    {(name, "lex" if "lex" in flags else None, None)
     for name, flags in DOCUMENTED_FIXTURES.values()},
    key=lambda case: (case[0], case[1] or ""),
) + [(name, None, None) for name in PRUNE_TEXTS] + [
    (name, None, last) for name, last in PRUNE_MOVED_LAST
]


# The space curve over the cyclic cubic that perfbench's generator makes
# from the seed "robust/0".  A pruned descent that starts from the
# block-order graph basis spends 57,843 steps on it, one that starts from the
# lex graph basis 1,288.
CUBIC_SPACE_CURVE = """\
# space curve over cubic, X = A(Y0)
[field]
minpoly = t^3 - 3*t + 1
generator = a

[galois]
e = a
r = -2 + a^2
r2 = 2 - a - a^2

[variety]
variables = x1, x2, x3
equation = (4/3 - 1/3*a^2)*x1^2 + 3*x2^2 + (11/19 + 2/19*a - 4/19*a^2)*x3 + 2
equation = (-4/3 + 1/3*a + 2/3*a^2)*x1*x2 + (-411/361 + 60/361*a + 108/361*a^2)*x3^2 + (-8/3 + 2/3*a + 4/3*a^2)*x1 + 1

[datum.r]
component = (-3 + a^2)*x1
component = x2
component = (-37/19 + 14/19*a + 10/19*a^2)*x3

[datum.r2]
component = (-2 + a + a^2)*x1
component = x2
component = (51/19 - 8/19*a - 22/19*a^2)*x3
"""


def oracle_case(name, order, last):
    """The datum of a PRUNE_ORACLE_CASES entry, its unpruned Y and R, with
    the coordinate `last` moved to last place, and the coordinates its
    pruning is expected to drop (None when not pinned)."""
    text, expected = PRUNE_TEXTS.get(name, (None, None))
    expected = PRUNE_MOVED_LAST.get((name, last), expected)
    datum = load_problem_text(text or read_fixture(f"{name}.txt"), order=order).datum
    res = wd.descend(datum)
    y, R = res.y_ideal, res.map
    if last is not None:
        names = [v for v in y.ring.variables if v != last] + [last]
        ring = wd.PolyRing(y.ring.field, names)
        y = wd.Ideal(ring, [g.transplant(ring) for g in y.generators])
        comps = dict(zip(res.y_ring.variables, R.components))
        R = wd.RationalMap(R.ring, [comps[v] for v in names], normalize=False)
    return datum, y, R, expected


def case_id(case):
    name, order, last = case
    return "-".join(filter(None, (name, order, last and f"{last}_last")))


def p(text, ring):
    return wd.parse_poly(text, ring)


def paper_model_ideal(y_ring):
    """The worked example's explicit four-coordinate model in the pipeline's
    coordinates (the pipeline's t1..t4 are the paper's w4, w3, w2, w1)."""
    return wd.Ideal(
        y_ring,
        [
            p("4 + t3^2 - t2^2", y_ring),
            p("t4^2 + t3*t2", y_ring),
            p("t4^2 + t1^2 - 2", y_ring),
        ],
    )


class TestVarietyAndDatum:
    def test_inconsistent_system_rejected(self, qi):
        ring = wd.PolyRing(qi, ("x1",))
        with pytest.raises(wd.InputError):
            wd.AffineVariety(ring, [p("x1", ring), p("x1 - 1", ring)])

    def test_identity_map_autofilled(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1*x2 - i", ring)])
        f = wd.RationalMap(ring, [p("x1", ring), p("-x2", ring)])
        d = wd.DescentDatum(X, qi_group, {1: f})
        assert d.maps[0].components == wd.identity_map(ring).components

    def test_identity_must_map_to_the_identity(self, qi, qi_group):
        # f_e = id is the rule every check made sigma by sigma relies on when
        # it skips e: a constant map for e is refused, the variables load.
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1^2 + x2^2 - 1", ring)])
        point = wd.RationalMap(ring, [p("1", ring), p("0", ring)])
        with pytest.raises(wd.InputError, match="must send x1 to itself"):
            wd.DescentDatum(X, qi_group, [point, point])
        listed = wd.RationalMap(ring, [p("x1", ring), p("x2", ring)])
        d = wd.DescentDatum(X, qi_group, [listed, point])
        assert d.maps[0].components == wd.identity_map(ring).components

    def test_missing_map_rejected(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1*x2 - i", ring)])
        with pytest.raises(wd.InputError):
            wd.DescentDatum(X, qi_group, {})

    def test_wrong_arity_rejected(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1*x2 - i", ring)])
        f = wd.RationalMap(ring, [p("x1", ring)])
        with pytest.raises(wd.InputError):
            wd.DescentDatum(X, qi_group, {1: f})

    def test_out_of_range_key_rejected(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1*x2 - i", ring)])
        f = wd.RationalMap(ring, [p("x1", ring), p("-x2", ring)])
        with pytest.raises(wd.InputError, match="datum keys"):
            wd.DescentDatum(X, qi_group, {1: f, 5: f})


class TestVerifyDatum:
    def test_humbert_passes(self, humbert):
        report = wd.verify_datum(humbert)
        assert report.ok
        assert all(ok for _, ok, _ in report.checks)

    def mutate(self, texts):
        field = wd.NumberField([1, 0, 1], gen_name="i")
        group = wd.GaloisGroup(field, [field.gen, -field.gen])
        ring = wd.PolyRing(field, ("x1", "x2", "x3", "x4"))
        X = wd.AffineVariety(
            ring,
            [
                p("1 + x1^2 + x2^2", ring),
                p("-1 + x1^2 + x3^2", ring),
                p("i + x1^2 + x4^2", ring),
            ],
        )
        f = wd.RationalMap(ring, [p(t, ring) for t in texts])
        return wd.DescentDatum(X, group, {1: f})

    MUTATIONS = [
        # (components, expected failure)
        (["i*x1", "i*x2", "i*x3", "i*x4"], wd.NotIntoConjugate),  # swap undone
        (["i*x1", "i*x3", "-1*i*x2", "i*x4"], wd.CocycleViolation),  # sign flip
        (["2*i*x1", "i*x3", "i*x2", "i*x4"], wd.NotIntoConjugate),  # coefficient
        (["i*x1", "i*x3", "i*x2", "x4"], wd.NotIntoConjugate),  # dropped unit
        (["i*x1", "i*x4", "i*x2", "i*x3"], wd.NotIntoConjugate),  # component swap
        (["i*x1", "i*x3", "i*x2", "i*x4 + 1"], wd.NotIntoConjugate),  # shift
    ]

    @pytest.mark.parametrize("texts,expected", MUTATIONS)
    def test_mutations_rejected_with_witness(self, texts, expected):
        d = self.mutate(texts)
        with pytest.raises(expected) as excinfo:
            wd.verify_datum(d, strict=True)
        assert isinstance(excinfo.value, wd.VerificationError)
        report = wd.verify_datum(d, strict=False)
        assert not report.ok
        failing = [w for _, ok, w in report.checks if not ok]
        assert failing and all(w is not None for w in failing)

    def test_sign_flip_names_component_and_witness(self):
        d = self.mutate(["i*x1", "i*x3", "-1*i*x2", "i*x4"])
        with pytest.raises(wd.CocycleViolation) as excinfo:
            wd.verify_datum(d, strict=True)
        assert excinfo.value.component == 1
        assert str(excinfo.value.witness) == "2*x2"

    def test_report_mode_lists_all_checks(self, humbert):
        report = wd.verify_datum(humbert, strict=False)
        labels = [label for label, _, _ in report.checks]
        # f_e is the identity, so only conj is checked: one cocycle pair, and
        # one into-conjugate check per equation.
        assert sum(1 for l in labels if l.startswith("cocycle")) == 1
        assert sum(1 for l in labels if l.startswith("into-conjugate")) == 3


class TestIdentityNotFirst:
    """Humbert with its [galois] lines swapped, so the identity is index 1:
    the checks made sigma by sigma skip the identity, not index 0."""

    TEXT = read_fixture("humbert.txt").replace("e = i\nconj = -i", "conj = -i\ne = i")

    def test_group_lists_the_identity_second(self):
        group = load_problem_text(self.TEXT).group
        assert (group.identity_index, group.nontrivial) == (1, (0,))

    def test_verify_datum_checks_index_zero_only(self):
        report = wd.verify_datum(load_problem_text(self.TEXT).datum, strict=False)
        assert report.ok
        assert [label for label, _, _ in report.checks] == [
            "into-conjugate sigma_0 generator_0",
            "into-conjugate sigma_0 generator_1",
            "into-conjugate sigma_0 generator_2",
            "cocycle (0, 0)",
        ]

    def test_descends_and_its_document_checks(self):
        problem = load_problem_text(self.TEXT)
        result = wd.descend(problem.datum, prune=True)
        assert all(result.certificates.values())
        claimed = load_claimed_model_text(render_result(result), problem)
        report = wd.check_claimed_model(problem, claimed)
        assert report.ok
        assert [l for l, _, _ in report.checks if l.startswith("descent")] == [
            "descent relation conj"
        ]


class TestMapsEqual:
    def test_equal_mod_ideal(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1 - x2^2", ring)])
        f = wd.RationalMap(ring, [p("x1", ring)])
        g = wd.RationalMap(ring, [p("x2^2", ring)])
        equal, witness = wd.maps_equal_mod_ideal(f, g, X.ideal)
        assert equal and witness is None

    def test_unequal_has_witness(self, qi):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1 - x2^2", ring)])
        f = wd.RationalMap(ring, [p("x1", ring)])
        g = wd.RationalMap(ring, [p("x2", ring)])
        equal, witness = wd.maps_equal_mod_ideal(f, g, X.ideal)
        assert not equal and not witness.is_zero()

    def test_denominator_in_ideal_rejected(self, qi):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1", ring)])
        f = wd.RationalMap(ring, [(p("x2", ring), p("x1", ring))], normalize=False)
        with pytest.raises(wd.ZeroDenominator):
            wd.maps_equal_mod_ideal(f, f, X.ideal)


class TestDisjointify:
    def circle_swap(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1^2 + x2^2 - 1", ring)])
        f = wd.RationalMap(ring, [p("x2", ring), p("x1", ring)])
        return wd.DescentDatum(X, qi_group, {1: f})

    def test_adds_pinned_coordinate(self, qi, qi_group):
        d = self.circle_swap(qi, qi_group)
        dd = wd.disjointify(d)
        assert dd is not d
        assert dd.variety.ring.nvars == 3
        conj = dd.variety.ideal.sigma(qi_group, 1)
        joint = wd.Ideal(
            dd.variety.ring,
            list(dd.variety.ideal.generators) + list(conj.generators),
        )
        assert joint.is_unit()
        # The transported datum is still a valid datum.
        assert wd.verify_datum(dd).ok

    @pytest.mark.parametrize("field", ["cubic", "zeta5"])
    def test_adds_one_coordinate_for_any_group_order(self, field, request):
        # The points 0 and a, with f_sigma(x) = sigma(a)/a * x: all the
        # conjugates meet at 0.  One coordinate pinned to a separates them.
        F = request.getfixturevalue(field)
        group = request.getfixturevalue(f"{field}_group")
        ring = wd.PolyRing(F, ("x1",))
        x, a = ring.var("x1"), F.gen
        X = wd.AffineVariety(ring, [x * x - x * ring.constant(a)])
        maps = {s: wd.RationalMap(ring, [x * ring.constant(group.apply(s, a) / a)])
                for s in group}
        d = wd.DescentDatum(X, group, maps)
        dd = wd.disjointify(d)
        assert dd.variety.ring.nvars == 2
        assert _conjugates_disjoint(dd.variety, group)
        assert wd.verify_datum(dd).ok

    def test_disjointness_takes_one_unit_check_per_nontrivial_sigma(self, monkeypatch):
        # The S3 points after disjointify: all 15 pairs of conjugates are
        # disjoint, and X + sigma X for the 5 nontrivial sigma tells so.
        problem = load_problem_text(S3_ORIGIN_POINTS)
        group = problem.datum.group
        X = wd.disjointify(problem.datum).variety
        conj = [X.ideal.sigma(group, s).generators for s in group]
        assert all(wd.Ideal(X.ring, list(a) + list(b)).is_unit()
                   for k, a in enumerate(conj) for b in conj[k + 1:])
        checks = []
        is_unit = wd.Ideal.is_unit
        monkeypatch.setattr(wd.Ideal, "is_unit",
                            lambda ideal: checks.append(ideal) or is_unit(ideal))
        assert _conjugates_disjoint(X, group)
        assert len(checks) == len(group.nontrivial) == 5

    def test_already_disjoint_untouched(self, humbert):
        assert wd.disjointify(humbert) is humbert

    def test_full_pipeline_through_disjointification(self, qi, qi_group):
        d = self.circle_swap(qi, qi_group)
        res = wd.descend(d)
        assert all(res.certificates.values())
        assert all(g.has_rational_coefficients() for g in res.y_generators)
        # R maps from the original two-coordinate model.
        assert res.map.ring is d.variety.ring
        assert res.inverse is not None
        assert res.inverse.target_arity == 2


class TestBuildPhi:
    def test_phi_components_match_datum(self, humbert):
        phi, ideal = wd.build_phi(humbert)
        assert phi.target_arity == 8
        assert phi.components[:4] == wd.identity_map(humbert.variety.ring).components
        assert phi.components[4:] == humbert.maps[1].components

    def test_phi_ideal_contains_graph_relations(self, humbert):
        phi, ideal = wd.build_phi(humbert)
        gb = ideal.groebner_basis()
        big = ideal.ring
        # z1 - i*x1 is one of the worked example's graph relations.
        rel = big.var("x1@1") - big.var("x1") * big.constant(
            humbert.variety.ring.field.gen
        )
        assert wd.normal_form(rel, gb).is_zero()


class TestDescend:
    def test_humbert_certificates(self, humbert):
        res = wd.descend(humbert)
        assert all(res.certificates.values())
        assert res.invariant_count == 14
        assert all(g.has_rational_coefficients() for g in res.y_generators)
        assert res.inverse is not None

    def test_humbert_prune_matches_paper_model(self, humbert):
        # [PAPER] the pruned model is exactly the explicit genus-5 model.
        res = wd.descend(humbert, prune=True)
        assert res.y_ring.variables == ("t1", "t2", "t3", "t4")
        assert wd.ideals_equal(res.y_ideal, paper_model_ideal(res.y_ring))
        assert all(res.certificates.values())

    def test_humbert_inverse_round_trip(self, humbert):
        res = wd.descend(humbert, prune=True)
        back = wd.compose_map(res.inverse, res.map)
        equal, _ = wd.maps_equal_mod_ideal(
            back, wd.identity_map(humbert.variety.ring), humbert.variety.ideal
        )
        assert equal
        forth = wd.compose_map(res.map, res.inverse)
        equal, _ = wd.maps_equal_mod_ideal(
            forth, wd.identity_map(res.y_ring), res.y_ideal
        )
        assert equal

    def test_descent_relation_all_fixtures(self, humbert, qi, qi_group):
        fixtures = [humbert]
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1^2 + x2^2 - i", ring)])
        f = wd.RationalMap(ring, [p("i*x2", ring), p("i*x1", ring)])
        fixtures.append(wd.DescentDatum(X, qi_group, {1: f}))
        for d in fixtures:
            res = wd.descend(d)
            group = d.group
            for s in group:
                assert wd.ideals_equal(res.y_ideal, res.y_ideal.sigma(group, s))
                rhs = wd.compose_map(res.map.sigma(group, s), d.maps[s])
                equal, _ = wd.maps_equal_mod_ideal(
                    res.map, rhs, d.variety.ideal
                )
                assert equal

    def test_trivial_group_echoes_x(self, rational_field, rational_group):
        ring = wd.PolyRing(rational_field, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x2^2 - x1^3 - 1", ring)])
        d = wd.DescentDatum(X, rational_group, {})
        res = wd.descend(d)
        assert res.y_generators == X.generators
        assert res.map.components == wd.identity_map(ring).components
        assert all(res.certificates.values())

    def test_stable_variety_short_circuits(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1^2 + x2^2 - 1", ring)])
        d = wd.DescentDatum(X, qi_group, {1: wd.identity_map(ring)})
        res = wd.descend(d)
        assert res.y_generators == X.generators
        assert res.map.components == wd.identity_map(ring).components
        assert all(res.certificates.values())

    @pytest.mark.parametrize("name", ["stable", "trivial"])
    def test_stable_path_honours_no_inverse(self, name):
        d = load_problem_text(read_fixture(f"{name}.txt")).datum
        res = wd.descend(d, want_inverse=False)
        assert res.inverse is None
        assert res.certificates["inverse_recovered"] is False
        # No Phi is built, so no disjointness is certified.
        assert "disjoint_conjugates" not in res.certificates

    def test_stable_path_reads_rational_generators(self, qi, qi_group):
        # X is sigma-stable but given by an irrational generator; Y is read
        # off its reduced basis, not traced.
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("i*x1^2 + i*x2^2 - i", ring)])
        d = wd.DescentDatum(X, qi_group, {1: wd.identity_map(ring)})
        res = wd.descend(d)
        assert [str(g) for g in res.y_generators] == ["x1^2 + x2^2 - 1"]
        assert res.y_ring == ring
        assert res.inverse is not None
        assert all(res.certificates.values())

    def test_budget_starved_run(self, humbert):
        with pytest.raises(wd.ResourceLimit):
            wd.descend(humbert, budget=5)

    def test_no_inverse_requested(self, humbert):
        res = wd.descend(humbert, want_inverse=False)
        assert res.inverse is None
        assert res.certificates["inverse_recovered"] is False

    def test_relation_checked_once_per_group_element(self, monkeypatch):
        # twisted_conic is disjointified; R is checked on X, not also on the
        # working model.  stable takes the identity as R, and checks it too.
        # The relation holds for the identity's map term for term, so only
        # the other elements are checked.
        calls = []
        relation = descent._relation

        def counted(R, datum, s):
            calls.append(s)
            return relation(R, datum, s)

        monkeypatch.setattr(descent, "_relation", counted)
        for name in ("twisted_conic", "stable"):
            d = load_problem_text(read_fixture(f"{name}.txt")).datum
            calls.clear()
            res = wd.descend(d)
            assert all(res.certificates.values())
            assert sorted(calls) == list(d.group.nontrivial)

    def test_determinism(self, humbert):
        a = wd.descend(humbert, prune=True)
        b = wd.descend(humbert, prune=True)
        assert [g.terms for g in a.y_generators] == [g.terms for g in b.y_generators]
        assert a.map.components == b.map.components
        assert a.inverse.components == b.inverse.components

    def test_repeated_runs_keep_no_field_alive(self):
        # Each load builds a new NumberField.  No cache in the kernel or in
        # the field arithmetic may keep one alive after its run.
        text = read_fixture("conic.txt")

        def live_fields():
            gc.collect()
            return sum(type(o) is wd.NumberField for o in gc.get_objects())

        wd.descend(load_problem_text(text).datum)
        before = live_fields()
        for _ in range(20):
            wd.descend(load_problem_text(text).datum)
        assert live_fields() <= before


class TestRunBudget:
    """The budget caps the steps of a whole run, not of each call."""

    @staticmethod
    def spent(prune, limit=DEFAULT_BUDGET):
        """The drop in the run's budget list over one Humbert descent.

        A fresh datum each time, so no basis is cached from a prior run.
        """
        budget = [limit]
        wd.descend(humbert_datum(), prune=prune, budget=budget)
        return limit - budget[0]

    @pytest.mark.parametrize("prune", [False, True])
    def test_total_steps_within_budget(self, prune):
        total = self.spent(prune)
        assert self.spent(prune, total) == total
        budget = [total - 1]
        with pytest.raises(wd.ResourceLimit):
            wd.descend(humbert_datum(), prune=prune, budget=budget)
        # total - 1 steps ran; the last decrement is the refused step.
        assert budget == [-1]

    def test_invariants_draw_from_the_run(self, kernel_steps):
        # The orbit sums and the echelon spend steps beyond the kernel's.
        assert self.spent(False) > kernel_steps[0] > 0

    def test_largest_single_call_is_not_enough(self, kernel_call_steps):
        # The steps of the largest single kernel call of a pruned Humbert
        # run cover that call but not the run; the run's total covers it.
        total = self.spent(True)
        largest = max(n for _, n in kernel_call_steps)
        assert largest < total
        with pytest.raises(wd.ResourceLimit):
            wd.descend(humbert_datum(), prune=True, budget=largest)
        wd.descend(humbert_datum(), prune=True, budget=total)

    # The steps of each Buchberger call and the normal-form steps in all of a
    # pruned descent on a freshly loaded problem: the kernel's linear step in
    # lex, its S-pair order, the Gebauer-Moller criteria that prune pairs as
    # each element is inserted, and the choice of divisor fix them.
    KERNEL_WORK = {
        "humbert": ([9, 69, 25, 13, 6, 5, 27], 8),
        "twisted_conic": ([8, 3, 6, 0, 3, 5, 9, 6, 6, 5, 4, 6, 6,
                           222, 17, 20, 0, 4, 7, 23, 3, 3], 8),
    }

    @pytest.mark.parametrize("name", sorted(KERNEL_WORK))
    def test_kernel_work_per_call(self, name, kernel_call_steps):
        problem = load_problem_text(read_fixture(f"{name}.txt"))
        del kernel_call_steps[:]
        wd.descend(problem.datum, prune=True)
        buchberger = [n for entry, n in kernel_call_steps if entry == "buchberger"]
        normal_form = sum(n for entry, n in kernel_call_steps if entry == "normal_form")
        assert (buchberger, normal_form) == self.KERNEL_WORK[name]

    @pytest.mark.parametrize(
        "name", sorted({name for name, _ in DOCUMENTED_FIXTURES.values()})
    )
    def test_every_kernel_call_draws_from_the_run(self, name, monkeypatch):
        # Loading, verify_datum, descend with and without pruning, and
        # check_claimed_model on the run's own document hand the kernel only
        # the list the problem was loaded with, never a fresh one.
        kernel = sys.modules["weildescent.kernel"]
        lists = []

        def recorded(fn):
            def wrapper(*args):
                lists.append(args[-1])
                return fn(*args)
            return wrapper

        for entry in ("buchberger", "normal_form"):
            monkeypatch.setattr(kernel, entry, recorded(getattr(kernel, entry)))
        run = [DEFAULT_BUDGET]
        problem = load_problem_text(read_fixture(f"{name}.txt"), budget=run)
        assert wd.verify_datum(problem.datum, budget=run).ok
        for prune in (False, True):
            result = wd.descend(problem.datum, budget=run, prune=prune)
        claimed = load_claimed_model_text(render_result(result), problem)
        assert wd.check_claimed_model(problem, claimed, run).ok
        assert lists and all(b is run for b in lists)

    def test_budget_stops_invariant_generation(self):
        # Disjointified, the S3 points have 12 block variables: their orbit
        # sums and echelon run for minutes unless the budget stops them.
        with pytest.raises(wd.ResourceLimit, match="budget exceeded"):
            wd.descend(load_problem_text(S3_ORIGIN_POINTS).datum, budget=2000)


class TestMorphismDescent:
    def test_compatible_morphism_transported(self, humbert, qi):
        ring = humbert.variety.ring
        z_ring = wd.PolyRing(qi, ("z1",))
        Z = wd.AffineVariety(z_ring, [])
        phi = wd.RationalMap(ring, [p("x1^4", ring)])
        res, L = wd.descend_morphism(humbert, phi, Z)
        for num, den in L.components:
            assert num.has_rational_coefficients()
            assert den.has_rational_coefficients()
        back = wd.compose_map(L, res.map)
        equal, _ = wd.maps_equal_mod_ideal(back, phi, humbert.variety.ideal)
        assert equal

    def test_incompatible_morphism_rejected(self, humbert, qi):
        ring = humbert.variety.ring
        z_ring = wd.PolyRing(qi, ("z1",))
        Z = wd.AffineVariety(z_ring, [])
        phi = wd.RationalMap(ring, [p("x1", ring)])
        with pytest.raises(wd.MorphismIncompatible):
            wd.descend_morphism(humbert, phi, Z)

    def test_non_rational_target_rejected(self, humbert, qi):
        z_ring = wd.PolyRing(qi, ("z1",))
        Z = wd.AffineVariety(z_ring, [p("z1 - i", z_ring)])
        phi = wd.RationalMap(humbert.variety.ring, [p("x1^4", humbert.variety.ring)])
        with pytest.raises(wd.InputError):
            wd.descend_morphism(humbert, phi, Z)


class TestAutomorphismTransport:
    def test_involution_transported(self, humbert):
        ring = humbert.variety.ring
        res = wd.descend(humbert, prune=True)
        g = wd.RationalMap(
            ring,
            [p("-1*x1", ring), p("x2", ring), p("x3", ring), p("-1*x4", ring)],
        )
        G = [wd.identity_map(ring), g]
        H = wd.transport_automorphisms(res, G)
        assert len(H) == 2
        y_gb_ok = all(
            wd.normal_form(
                wd.parse_poly(str(gen), res.y_ring), res.y_ideal.groebner_basis()
            ).is_zero()
            for gen in res.y_generators
        )
        assert y_gb_ok
        for h in H:
            for num, den in h.components:
                assert num.has_rational_coefficients()
                assert den.has_rational_coefficients()

    def test_non_automorphism_rejected(self, humbert):
        ring = humbert.variety.ring
        res = wd.descend(humbert, prune=True)
        bad = wd.RationalMap(
            ring, [p("x1 + 1", ring), p("x2", ring), p("x3", ring), p("x4", ring)]
        )
        with pytest.raises(wd.InputError):
            wd.transport_automorphisms(res, [bad])


class TestCompareModels:
    def test_pipeline_vs_paper_model(self, humbert, qi):
        res = wd.descend(humbert, prune=True)
        ring = humbert.variety.ring
        w_ring = wd.PolyRing(qi, ("w1", "w2", "w3", "w4"))
        claimed_map = wd.RationalMap(
            ring,
            [
                p("(1 + i)*x1", ring),
                p("x2 + i*x3", ring),
                p("x3 + i*x2", ring),
                p("(1 + i)*x4", ring),
            ],
        )
        claimed_ideal = wd.Ideal(
            w_ring,
            [
                p("4 + w2^2 - w3^2", w_ring),
                p("w1^2 + w2*w3", w_ring),
                p("w1^2 + w4^2 - 2", w_ring),
            ],
        )
        J = wd.compare_models(res, (claimed_map, claimed_ideal, None), humbert)
        for num, den in J.components:
            assert num.has_rational_coefficients()
            assert den.has_rational_coefficients()
        # J sends the pipeline's coordinates to the paper's: a permutation.
        comps = [str(num) for num, _ in J.components]
        assert comps == ["t4", "t3", "t2", "t1"]

    def test_missing_inverse_rejected(self, humbert):
        res = wd.descend(humbert, prune=True, want_inverse=False)
        with pytest.raises(wd.MissingInverse):
            wd.compare_models(res, res, humbert)


class TestBasisReuse:
    """One descend call computes each Groebner basis at most once."""

    @staticmethod
    def circle_swap(qi, qi_group):
        # Conjugates meet, so descend runs on a disjointified model.
        ring = wd.PolyRing(qi, ("x1", "x2"))
        X = wd.AffineVariety(ring, [p("x1^2 + x2^2 - 1", ring)])
        f = wd.RationalMap(ring, [p("x2", ring), p("x1", ring)])
        return wd.DescentDatum(X, qi_group, {1: f})

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize(
        "name",
        ["conic", "conic_half", "humbert", "stable", "trivial", "twisted_conic",
         "cubic_origin", "circle_swap"],
    )
    def test_no_basis_computed_twice(self, monkeypatch, qi, qi_group, name, prune):
        if name == "circle_swap":
            datum = self.circle_swap(qi, qi_group)
        else:
            datum = load_problem_text(read_fixture(f"{name}.txt")).datum
        groebner_module = sys.modules["weildescent.groebner"]
        real = groebner_module.groebner
        seen = []

        def counting(I, order=None, budget=None):
            order = order or I.ring.order
            gens = frozenset(frozenset(g.terms.items()) for g in I.generators)
            seen.append((I.ring.variables, order, gens))
            return real(I, order, budget)

        monkeypatch.setattr(groebner_module, "groebner", counting)
        res = wd.descend(datum, prune=prune)
        assert all(res.certificates.values())
        repeated = [key[:2] for key in set(seen) if seen.count(key) > 1]
        assert not repeated

    @pytest.mark.parametrize("name, order, last", PRUNE_ORACLE_CASES,
                             ids=[case_id(case) for case in PRUNE_ORACLE_CASES])
    def test_pruned_y_matches_elimination_path(self, name, order, last):
        """Pruning with one block basis and eliminate() per tested t_j drops
        the same coordinates and gives the same Y as descend's pruning, or as
        _prune_coordinates on Y with the coordinate `last` moved to last place."""
        datum, y, R, expected = oracle_case(name, order, last)
        current = y
        dropped = []
        for tname in reversed(y.ring.variables):
            kept = current.ring.variables
            if len(kept) == 1:
                break
            reordered = wd.PolyRing(
                y.ring.field,
                (tname,) + tuple(v for v in kept if v != tname),
                wd.MonomialOrder("block", split=1),
            )
            moved = wd.Ideal(
                reordered, [g.transplant(reordered) for g in current.generators]
            )
            gb = moved.groebner_basis(order=reordered.order)
            lead = (1,) + (0,) * (reordered.nvars - 1)
            if any(
                g.degree_in(0) == 1
                and lead in g.terms
                and all(m[0] == 0 for m in g.terms if m != lead)
                for g in gb.elements
            ):
                dropped.append(tname)
                current = wd.eliminate(current, [tname])
        if expected is not None:
            assert tuple(dropped) == expected
        if last is None:
            res = wd.descend(datum, prune=True)
            pruned, y_pruned = res.pruned, res.y_ideal
        else:
            y_pruned, _, pruned = descent._prune_coordinates(
                descent._reverse_lex(y), R)
        assert pruned == tuple(dropped)
        assert y_pruned.ring == current.ring
        assert [g.terms for g in y_pruned.generators] == [
            g.terms for g in current.generators
        ]

    @pytest.mark.parametrize("name, order, last", PRUNE_ORACLE_CASES,
                             ids=[case_id(case) for case in PRUNE_ORACLE_CASES])
    def test_lex_graph_basis_holds_y_lex_basis(self, name, order, last):
        """The part of the lex graph basis of R, with the coordinates in
        reverse, that is free of the source variables is the reduced lex basis
        of Y over the same coordinates: the first basis pruning reads."""
        datum, y, R, _ = oracle_case(name, order, last)
        X = datum.variety
        n = y.ring.nvars
        targets = tuple(_fresh_name(f"t{k + 1}", X.ring.variables) for k in range(n))
        reverse = wd.RationalMap(R.ring, R.components[::-1], normalize=False)
        gb, split = _graph_basis(
            reverse, X.ideal, targets[::-1], wd.MonomialOrder("lex"))
        free = [
            {m[split:]: c for m, c in g.terms.items()}
            for g in gb.elements
            if not any(g.uses_variable(i) for i in range(split))
        ]
        lex = descent._reverse_lex(y).groebner_basis()
        assert free == [g.terms for g in lex.elements]

    def test_nothing_dropped_gives_the_grevlex_basis(self, qi):
        # t2 is no polynomial in t1 on the circle, and t1 is never tested.
        ring = wd.PolyRing(qi, ("t1", "t2"))
        y = wd.Ideal(ring, [p("2*t1^2 + 2*t2^2 - 2", ring)])
        x_ring = wd.PolyRing(qi, ("x1", "x2"))
        R = wd.identity_map(x_ring)
        y_pruned, R_pruned, pruned = descent._prune_coordinates(
            descent._reverse_lex(y), R)
        assert pruned == ()
        assert y_pruned.ring == ring
        assert [g.terms for g in y_pruned.generators] == [
            g.terms for g in y.groebner_basis().elements
        ]
        assert R_pruned.components == R.components
        # Given Y itself, as on the stable path, nothing dropped returns it.
        assert descent._prune_coordinates(
            descent._reverse_lex(y), R, y)[0] is y


class TestReach:
    def test_cubic_space_curve_prunes_within_a_small_budget(self):
        problem = load_problem_text(CUBIC_SPACE_CURVE)
        result = wd.descend(problem.datum, prune=True, budget=5000)
        assert all(result.certificates.values())
        claimed = load_claimed_model_text(render_result(result), problem)
        assert wd.check_claimed_model(problem, claimed).ok


class TestSigmaStable:
    def test_conjugate_point_not_stable(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x",))
        assert not _sigma_stable(wd.Ideal(ring, [p("x - i", ring)]), qi_group)

    def test_stable_ideal_with_irrational_generator(self, qi, qi_group):
        ring = wd.PolyRing(qi, ("x",))
        assert _sigma_stable(wd.Ideal(ring, [p("i*x^2 + i", ring)]), qi_group)

    def test_agrees_with_ideals_equal(self, humbert, qi, qi_group):
        res = wd.descend(humbert)
        tnames = res.y_ring.variables
        # The image ideal as descend certifies it, before trace descent.
        y_raw = wd.image_ideal(res.map, humbert.variety.ideal, tnames)
        ring = wd.PolyRing(qi, ("x1", "x2"))
        unstable = wd.Ideal(ring, [p("x1^2 + x2^2 - i", ring), p("x1 - x2", ring)])
        cases = [
            (y_raw, humbert.group, True),
            (res.y_ideal, humbert.group, True),
            (unstable, qi_group, False),
        ]
        for ideal, group, expected in cases:
            direct = all(
                wd.ideals_equal(ideal, ideal.sigma(group, s)) for s in group
            )
            assert _sigma_stable(ideal, group) == direct == expected
