"""End-to-end acceptance checks.

Each test covers one acceptance criterion, performs exact (zero-tolerance)
verification, and prints a single pass/fail line on the real stdout so the
outcome is visible even under pytest output capture.
"""

import random
import time
from fractions import Fraction

import weildescent as wd
from weildescent.cli import main as cli_main
from tests.conftest import fixture_path, read_fixture, humbert_datum


EMITTED = []


def report(number, label, ok):
    line = f"criterion {number} ({label}): {'pass' if ok else 'FAIL'}"
    EMITTED.append(line)
    print(line)
    assert ok, line


def paper_model_ideal(ring):
    # explicit reference model for the quartic fixture, in pruned coordinates
    # t1..t4 (= w4, w3, w2, w1 of the four-coordinate reduced model)
    return wd.Ideal(
        ring,
        [
            wd.parse_poly("4 + t3^2 - t2^2", ring),
            wd.parse_poly("t4^2 + t3*t2", ring),
            wd.parse_poly("t4^2 + t1^2 - 2", ring),
        ],
    )


def test_criterion_1_golden_quartic():
    datum = humbert_datum()
    start = time.monotonic()
    full = wd.descend(datum)
    pruned = wd.descend(datum, prune=True)
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    ok = ok and all(full.certificates.values())
    ok = ok and all(pruned.certificates.values())
    ok = ok and all(g.has_rational_coefficients() for g in full.y_generators)
    ok = ok and len(pruned.y_ring.variables) == 4
    ok = ok and wd.ideals_equal(pruned.y_ideal, paper_model_ideal(pruned.y_ring))
    report(1, "golden quartic fixture under 60 s, pruned model exact", ok)


def test_criterion_2_published_model_accepted(capsys):
    code = cli_main(
        [
            "check-model",
            fixture_path("humbert.txt"),
            "--claimed",
            fixture_path("humbert_claimed.txt"),
        ]
    )
    out = capsys.readouterr().out
    ok = code == 0 and "result = pass" in out and "FAIL" not in out
    report(2, "published explicit model accepted by check-model", ok)


def test_criterion_3_invariant_counts(qi, qi_group):
    act4 = wd.BlockPermutationAction(
        qi_group, 4, var_names=tuple(f"y{k}" for k in range(1, 5)), field=qi
    )
    gens4 = wd.generate_invariants(act4)
    ok = len(gens4) == 14

    act1 = wd.BlockPermutationAction(qi_group, 1, var_names=("y1",), field=qi)
    gens1 = wd.generate_invariants(act1)
    ye, ys = act1.ring.var(0), act1.ring.var(1)
    ok = ok and sorted(map(str, gens1)) == sorted(map(str, [ye + ys, ye * ys]))
    report(3, "minimal invariant generator counts (14 and {sum, product})", ok)


def test_criterion_4_mutation_suite():
    good = humbert_datum()
    variety, group = good.variety, good.group
    wd.verify_datum(good)  # baseline must pass

    mutations = [
        ["i*x1", "i*x2", "i*x3", "i*x4"],        # swap undone
        ["i*x1", "i*x3", "-1*i*x2", "i*x4"],     # single sign flip
        ["2*i*x1", "i*x3", "i*x2", "i*x4"],      # coefficient change
        ["i*x1", "i*x3", "i*x2", "x4"],          # dropped unit
        ["i*x1", "i*x4", "i*x2", "i*x3"],        # component swap
        ["i*x1", "i*x3", "i*x2", "i*x4 + 1"],    # constant shift
    ]
    ok = True
    for comps in mutations:
        maps = {
            1: wd.RationalMap(
                variety.ring, [wd.parse_poly(c, variety.ring) for c in comps]
            )
        }
        bad = wd.DescentDatum(variety, group, maps)
        rep = wd.verify_datum(bad, strict=False)
        rejected = not rep.ok
        witnessed = any(
            (not check_ok) and witness is not None and str(witness) not in ("", "0")
            for _, check_ok, witness in rep.checks
        )
        ok = ok and rejected and witnessed
    report(4, "six single-token datum mutations rejected with witnesses", ok)


def test_criterion_5_property_suites(qi, qi_group, sqrt2, sqrt2_group):
    rng = random.Random(20260826)
    ok = True

    def rand_elt(field):
        return field.element(
            [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
             for _ in range(field.degree)]
        )

    def rand_poly(ring):
        p = ring.zero
        for _ in range(rng.randint(0, 4)):
            mono = ring.one
            for name in ring.variables:
                mono = mono * ring.var(name) ** rng.randint(0, 3)
            p = p + mono * ring.constant(rand_elt(ring.field))
        return p

    # The last group lists the identity second.
    swapped = wd.GaloisGroup(qi, [-qi.gen, qi.gen])
    for field, group in ((qi, qi_group), (sqrt2, sqrt2_group), (qi, swapped)):
        basis = wd.power_basis(field)
        lam = wd.solve_trace_coefficients(wd.basis_matrix(group, basis))
        ring = wd.PolyRing(field, ("x", "y"))
        for _ in range(100):
            x = rand_elt(field)
            rebuilt = field.zero
            for l, e in zip(lam, basis):
                rebuilt = rebuilt + l * group.trace(e * x)
            ok = ok and rebuilt == x
            ok = ok and group.trace(x).is_rational()

            p, q = rand_poly(ring), rand_poly(ring)
            a = rng.randrange(group.order)
            b = rng.randrange(group.order)
            ok = ok and (p + q).sigma(group, a) == p.sigma(group, a) + q.sigma(group, a)
            ok = ok and (p * q).sigma(group, a) == p.sigma(group, a) * q.sigma(group, a)
            ok = ok and p.sigma(group, b).sigma(group, a) == p.sigma(
                group, group.compose(b, a)
            )
            tr = wd.poly_trace(p, group)
            ok = ok and tr.has_rational_coefficients()

    # exact invariance and rationality for every generated set with n <= 3
    for field, group in ((qi, qi_group), (sqrt2, sqrt2_group)):
        for n in (1, 2, 3):
            act = wd.BlockPermutationAction(
                group, n,
                var_names=tuple(f"y{k}" for k in range(1, n + 1)),
                field=field,
            )
            for g in wd.generate_invariants(act):
                ok = ok and g.has_rational_coefficients()
                for tau in range(group.order):
                    ok = ok and act.act(tau, g) == g
    report(5, "randomized trace/action laws and invariant stability", ok)


def test_criterion_6_groebner_oracles(rational_field):
    rr = wd.PolyRing(rational_field, ("x", "y", "z"))
    twisted = wd.Ideal(
        rr, [wd.parse_poly("y - x^2", rr), wd.parse_poly("z - x^3", rr)]
    )
    elim = wd.eliminate(twisted, ("x",))
    target_ring = wd.PolyRing(rational_field, ("y", "z"))
    target = wd.Ideal(target_ring, [wd.parse_poly("z^2 - y^3", target_ring)])
    ok = wd.ideals_equal(elim, target)

    datum = humbert_datum()
    variety = datum.variety
    conj = [g.sigma(datum.group, 1) for g in variety.generators]
    joint = wd.Ideal(variety.ring, list(variety.generators) + conj)
    ok = ok and joint.is_unit()

    sr = wd.PolyRing(rational_field, ("x", "y"))
    sat = wd.saturate(
        wd.Ideal(sr, [wd.parse_poly("x*y", sr)]), wd.parse_poly("x", sr)
    )
    ok = ok and wd.ideals_equal(sat, wd.Ideal(sr, [wd.parse_poly("y", sr)]))
    report(6, "elimination, unit-ideal, and saturation oracles", ok)


FIXTURE_NAMES = (
    "humbert.txt", "trivial.txt", "stable.txt", "conic.txt", "twisted_conic.txt"
)


def _fixture_problems():
    from weildescent.problemfile import load_problem_text

    return [(name, load_problem_text(read_fixture(name))) for name in FIXTURE_NAMES]


def test_criterion_7_rationality_of_all_models():
    ok = True
    for name, problem in _fixture_problems():
        result = wd.descend(problem.datum)
        group = problem.datum.group
        for sigma in range(group.order):
            twisted = wd.Ideal(
                result.y_ring,
                [g.sigma(group, sigma) for g in result.y_ideal.generators],
            )
            ok = ok and wd.ideals_equal(result.y_ideal, twisted)
        ok = ok and result.certificates["descent_relation"]
        ok = ok and result.certificates["y_sigma_stable"]
        ok = ok and all(
            g.has_rational_coefficients() for g in result.y_generators
        )
    report(7, "Y sigma-stability and descent relation on all fixtures", ok)


def test_criterion_8_deterministic_documents(capsys):
    ok = True
    for name in FIXTURE_NAMES:
        docs = []
        for _ in range(2):
            code = cli_main(["descend", fixture_path(name), "--prune"])
            out = capsys.readouterr().out
            ok = ok and code == 0
            docs.append(out)
        ok = ok and docs[0] == docs[1]
    report(8, "byte-identical result documents across runs", ok)
