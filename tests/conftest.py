import os
import sys

import pytest

import weildescent as wd

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def read_fixture(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


# Committed `descend` documents, <stem>_result.txt, each with the problem
# file and flags that write it.  Pruned: a non-integral minimal polynomial,
# a datum with a denominator, points over the cyclic cubic field whose
# conjugates meet, the genus-5 Humbert curve, and a parabola whose degree-1
# coordinates are all constant, so that Y has no affine chart.  Unpruned: Y
# read straight off the graph basis, in every invariant coordinate.  Stable
# and trivial: X is its own model, R the identity.
DOCUMENTED_FIXTURES = {
    "conic_half": ("conic_half", ["--prune"]),
    "twisted_conic": ("twisted_conic", ["--prune"]),
    "cubic_origin": ("cubic_origin", ["--prune"]),
    "humbert": ("humbert", ["--prune"]),
    "parabola": ("parabola", ["--prune"]),
    "cubic_origin_unpruned": ("cubic_origin", []),
    "conic_unpruned": ("conic", []),
    "humbert_unpruned": ("humbert", []),
    "parabola_unpruned": ("parabola", []),
    "twisted_conic_unpruned": ("twisted_conic", []),
    "twisted_conic_lex": ("twisted_conic", ["--prune", "--order", "lex"]),
    "twisted_conic_lex_unpruned": ("twisted_conic", ["--order", "lex"]),
    "stable": ("stable", []),
    "stable_no_inverse": ("stable", ["--no-inverse"]),
    "trivial": ("trivial", []),
}


@pytest.fixture(scope="session")
def qi():
    """Q(i), minimal polynomial t^2 + 1."""
    return wd.NumberField([1, 0, 1], gen_name="i")


@pytest.fixture(scope="session")
def qi_group(qi):
    return wd.GaloisGroup(qi, [qi.gen, -qi.gen])


@pytest.fixture(scope="session")
def sqrt2():
    """Q(sqrt 2), minimal polynomial t^2 - 2."""
    return wd.NumberField([-2, 0, 1], gen_name="s")


@pytest.fixture(scope="session")
def sqrt2_group(sqrt2):
    return wd.GaloisGroup(sqrt2, [sqrt2.gen, -sqrt2.gen])


@pytest.fixture(scope="session")
def cubic():
    """The cyclic cubic field Q(2 cos(2 pi / 7)), minimal polynomial
    t^3 + t^2 - 2t - 1; the automorphisms are generated by a -> a^2 - 2."""
    return wd.NumberField([-1, -2, 1, 1], gen_name="a")


@pytest.fixture(scope="session")
def cubic_group(cubic):
    a = cubic.gen
    s = a * a - 2
    s2 = s * s - 2
    return wd.GaloisGroup(cubic, [a, s, s2])


@pytest.fixture(scope="session")
def zeta5():
    """Q(zeta_5), minimal polynomial t^4 + t^3 + t^2 + t + 1."""
    return wd.NumberField([1, 1, 1, 1, 1], gen_name="z")


@pytest.fixture(scope="session")
def zeta5_group(zeta5):
    # z -> z^k for k = 1..4: a cyclic group of order 4, generated by z -> z^2
    z = zeta5.gen
    return wd.GaloisGroup(zeta5, [z, z * z, z * z * z, z * z * z * z])


@pytest.fixture(scope="session")
def rational_field():
    """Q itself as a degree-1 extension (trivial Galois group)."""
    return wd.NumberField([0, 1], gen_name="q0")


@pytest.fixture(scope="session")
def rational_group(rational_field):
    return wd.GaloisGroup(rational_field, [rational_field.gen])


def humbert_datum():
    """The genus-5 curve over Q(i) with datum f = (i x1, i x3, i x2, i x4)."""
    field = wd.NumberField([1, 0, 1], gen_name="i")
    group = wd.GaloisGroup(field, [field.gen, -field.gen])
    ring = wd.PolyRing(field, ("x1", "x2", "x3", "x4"))

    def p(text):
        return wd.parse_poly(text, ring)

    variety = wd.AffineVariety(
        ring,
        [p("1 + x1^2 + x2^2"), p("-1 + x1^2 + x3^2"), p("i + x1^2 + x4^2")],
    )
    f = wd.RationalMap(ring, [p("i*x1"), p("i*x3"), p("i*x2"), p("i*x4")])
    return wd.DescentDatum(variety, group, {1: f})


@pytest.fixture(scope="session")
def humbert():
    return humbert_datum()


def pytest_terminal_summary(terminalreporter):
    # one pass/fail line per acceptance criterion, visible despite capture
    import sys

    acc = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance"
    )
    lines = getattr(acc, "EMITTED", None) if acc else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def _record_kernel_steps(monkeypatch, record):
    """Wrap both kernel entry points so that record(entry, n) gets the name
    of each call's entry point and the n reduction steps it spends: the drop
    in the budget list it is given."""
    kernel = sys.modules["weildescent.kernel"]

    def counted(name, fn):
        def wrapper(*args):
            budget = args[-1]
            before = budget[0]
            try:
                return fn(*args)
            finally:
                record(name, before - budget[0])
        return wrapper

    for name in ("buchberger", "normal_form"):
        monkeypatch.setattr(kernel, name, counted(name, getattr(kernel, name)))


@pytest.fixture
def kernel_steps(monkeypatch):
    """A one-element list that counts the reduction steps every kernel call
    spends while the test runs."""
    spent = [0]

    def add(_, n):
        spent[0] += n

    _record_kernel_steps(monkeypatch, add)
    return spent


@pytest.fixture
def kernel_call_steps(monkeypatch):
    """(entry point, reduction steps) of each kernel call made while the
    test runs, one pair per call, in call order."""
    calls = []
    _record_kernel_steps(monkeypatch, lambda name, n: calls.append((name, n)))
    return calls
