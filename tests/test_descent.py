import sys
from fractions import Fraction

import pytest

import weildescent as wd
from tests.conftest import humbert_datum, read_fixture
from weildescent.descent import _sigma_stable
from weildescent.problemfile import load_problem_text


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
        assert sum(1 for l in labels if l.startswith("cocycle")) == 4
        assert sum(1 for l in labels if l.startswith("into-conjugate")) == 6


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

    def test_budget_starved_run(self, humbert):
        with pytest.raises(wd.ResourceLimit):
            wd.descend(humbert, budget=5)

    def test_no_inverse_requested(self, humbert):
        res = wd.descend(humbert, want_inverse=False)
        assert res.inverse is None
        assert res.certificates["inverse_recovered"] is False

    def test_determinism(self, humbert):
        a = wd.descend(humbert, prune=True)
        b = wd.descend(humbert, prune=True)
        assert [g.terms for g in a.y_generators] == [g.terms for g in b.y_generators]
        assert a.map.components == b.map.components
        assert a.inverse.components == b.inverse.components


class TestRunBudget:
    """The budget caps the reduction steps of a whole run, not of each call."""

    @pytest.mark.parametrize("prune", [False, True])
    def test_total_steps_within_budget(self, kernel_steps, prune):
        spent = kernel_steps

        def run(budget=None):
            # A fresh datum each time, so no basis is cached from a prior run.
            d = humbert_datum()
            spent[0] = 0
            wd.descend(d, prune=prune, budget=budget)
            return spent[0]

        total = run()
        assert run(budget=total) == total
        with pytest.raises(wd.ResourceLimit):
            run(budget=total - 1)
        # total - 1 steps ran; the last decrement is the refused step.
        assert spent[0] == total

    def test_largest_single_call_is_not_enough(self):
        # 1385 steps cover the largest single Groebner call of a pruned
        # Humbert run, but not the run.
        with pytest.raises(wd.ResourceLimit):
            wd.descend(humbert_datum(), prune=True, budget=1385)


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
        "name", ["conic", "humbert", "stable", "trivial", "circle_swap"]
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

    def test_pruned_y_matches_elimination_path(self, humbert):
        """Pruning that eliminates each dropped t_j with eliminate() gives
        the same generators as reusing the expressibility basis."""
        y = wd.descend(humbert).y_ideal
        current = y
        for name in reversed(y.ring.variables):
            kept = current.ring.variables
            if len(kept) == 1:
                break
            reordered = wd.PolyRing(
                y.ring.field,
                (name,) + tuple(v for v in kept if v != name),
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
                current = wd.eliminate(current, [name])
        res = wd.descend(humbert, prune=True)
        assert res.y_ring == current.ring
        assert [g.terms for g in res.y_generators] == [
            g.terms for g in current.generators
        ]


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
