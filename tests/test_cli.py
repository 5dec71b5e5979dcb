import argparse
import gc
import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import weildescent as wd
from weildescent import cli, multipoly, problemfile
from weildescent._pykernel import _run
from weildescent.cli import main
from weildescent.kernel import DEFAULT_BUDGET
from weildescent.problemfile import load_problem
from tests.conftest import DOCUMENTED_FIXTURES, FIXTURES, fixture_path, read_fixture


# The field of sqrt 2 + sqrt 3 + sqrt 5, whose minimal polynomial is
# reducible modulo every prime: its irreducibility test recombines lifted
# factors, 10 subsets.  The point x1 = 0 with the identity datum keeps the
# rest of a run cheap.
_OCTIC_IMAGES = [
    "a",
    "59/6*a - 95/18*a^3 + 97/144*a^5 - 5/288*a^7",
    "-13/2*a + 61/12*a^3 - 37/48*a^5 + 1/48*a^7",
    "7/3*a - 7/36*a^3 - 7/72*a^5 + 1/288*a^7",
    "-7/3*a + 7/36*a^3 + 7/72*a^5 - 1/288*a^7",
    "13/2*a - 61/12*a^3 + 37/48*a^5 - 1/48*a^7",
    "-59/6*a + 95/18*a^3 - 97/144*a^5 + 5/288*a^7",
    "-a",
]
OCTIC_POINT = "\n".join(
    ["[field]", "minpoly = t^8 - 40*t^6 + 352*t^4 - 960*t^2 + 576", "generator = a",
     "[galois]"]
    + [f"g{k} = {image}" for k, image in enumerate(_OCTIC_IMAGES)]
    + ["[variety]", "variables = x1", "equation = x1"]
    + [line for k in range(1, 8) for line in (f"[datum.g{k}]", "component = x1")]
)

# A surface over Q(i) defined over Q, with the identity datum, whose equation
# expands to 12,340 terms.
POWER_OF_A_SUM = """[field]
minpoly = t^2 + 1
generator = i

[galois]
e = i
conj = -i

[variety]
variables = x1, x2, x3
equation = (x1 + x2 + x3 + 1)^40 - 1

[datum.conj]
component = x1
component = x2
component = x3

[options]
budget = 1000
"""


def test_every_result_document_is_pinned():
    stems = {
        name[: -len("_result.txt")]
        for name in os.listdir(FIXTURES)
        if name.endswith("_result.txt")
    }
    assert stems <= set(DOCUMENTED_FIXTURES)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize("command", ["descend", "verify-datum", "check-model"])
def test_non_positive_budget_exit_two(command, budget, capsys):
    # The same refusal as `budget = 0` under [options] in the problem file.
    claimed = ["--claimed", fixture_path("humbert_claimed.txt")]
    extra = claimed if command == "check-model" else []
    code, out, err = run(
        capsys, command, fixture_path("humbert.txt"), *extra, "--budget", budget
    )
    assert code == 2
    assert "budget must be positive" in err
    assert out == ""


def test_one_parser_serves_every_command(monkeypatch):
    # The parser is built once, at import: the weildescent parsers alive
    # while a command runs are the same objects on every call, so none pile
    # up in the collector's oldest generation over many calls.
    seen = []

    def command(args):
        gc.collect()
        seen.append({id(o): o for o in gc.get_objects()
                     if isinstance(o, argparse.ArgumentParser)
                     and o.prog.startswith("weildescent")})
        return 0

    monkeypatch.setattr(cli, "cmd_verify_datum", command)
    for _ in range(3):
        assert main(["verify-datum", fixture_path("humbert.txt")]) == 0
    assert seen[0] and seen[0].keys() == seen[1].keys() == seen[2].keys()


def test_usage_error_leaves_the_parser_usable(capsys):
    for argv in (["descend", fixture_path("conic.txt"), "--order", "bogus"],
                 ["check-model", fixture_path("conic.txt")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "descend", fixture_path("conic.txt"))
    assert code == 0
    assert out == read_fixture("conic_unpruned_result.txt")


_CONIC = read_fixture("conic.txt").split("\n")
# The lines of the [variety] and [datum.conj] sections, headers included.
_FUZZED_LINES = [k for k in range(_CONIC.index("[variety]"), len(_CONIC)) if _CONIC[k]]
_CLAIMED = read_fixture("conic_unpruned_result.txt").split("\n")
# The lines of the [Y], [map] and [inverse] sections, headers included.
_FUZZED_CLAIMED_LINES = [
    k for k in range(_CLAIMED.index("[certificates]")) if _CLAIMED[k]]


def _one_character_edit(data, lines, fuzzed, path):
    """Write lines to path with one insert, delete or replace of a character
    in one of the lines whose indices are fuzzed."""
    k = data.draw(st.sampled_from(fuzzed))
    line = lines[k]
    pos = data.draw(st.integers(0, len(line) - 1))
    new = data.draw(st.sampled_from(list("0123456789xi()+-*^,=")))
    edited = data.draw(st.sampled_from([
        line[:pos] + new + line[pos:],
        line[:pos] + line[pos + 1:],
        line[:pos] + new + line[pos + 1:],
    ]))
    path.write_text("\n".join(lines[:k] + [edited] + lines[k + 1:]))
    return str(path)


def _exit_code(argv):
    """main(argv) run quietly: its exit code, or 2 when argparse stops it."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return exc.code


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_one_character_edit_ends_in_an_exit_code(tmp_path_factory, data):
    # One edit in the conic's variety or datum: verify-datum exits 0-3, or
    # argparse stops it with status 2.
    path = _one_character_edit(data, _CONIC, _FUZZED_LINES,
                               tmp_path_factory.getbasetemp() / "edited_conic.txt")
    assert _exit_code(["verify-datum", path, "--budget", "5000"]) in (0, 1, 2, 3)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_one_character_edit_of_a_claimed_model_ends_in_an_exit_code(
        tmp_path_factory, data):
    # One edit in the [Y], [map] or [inverse] lines of the conic's result.
    claimed = _one_character_edit(
        data, _CLAIMED, _FUZZED_CLAIMED_LINES,
        tmp_path_factory.getbasetemp() / "edited_claimed.txt")
    code = _exit_code(["check-model", fixture_path("conic.txt"),
                       "--claimed", claimed, "--budget", "5000"])
    assert code in (0, 1, 2, 3)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_one_character_edit_ends_in_an_exit_code_under_descend(tmp_path_factory, data):
    # The same edits, run through the whole pipeline with pruning.
    path = _one_character_edit(data, _CONIC, _FUZZED_LINES,
                               tmp_path_factory.getbasetemp() / "edited_conic.txt")
    assert _exit_code(["descend", path, "--prune", "--budget", "5000"]) in (0, 1, 2, 3)


def _replace_line(lines, k, text, path):
    assert lines[k] != text
    path.write_text("\n".join(lines[:k] + [text] + lines[k + 1:]))
    return str(path)


# The last four fail checks made after the entry parses: a bad or repeated
# variable name, an image that is not a root, a third component.
@pytest.mark.parametrize("lineno, text", [
    (3, "minpoly = t^2 + s"),
    (3, "minpoly = t^2 + 1)"),
    (12, "equation = x1^2 + y^2 - i"),
    (15, "component = i*y2"),
    (16, "denominator = x1 +"),
    (11, "variables = x1, 2x"),
    (11, "variables = x1, x1"),
    (8, "conj = i + 1"),
    (17, "component = x1"),
])
def test_bad_problem_expression_names_its_line(lineno, text, tmp_path, capsys):
    path = _replace_line(_CONIC, lineno - 1, text, tmp_path / "bad.txt")
    code, _, err = run(capsys, "verify-datum", path)
    assert code == 2
    assert err.startswith(f"input error: line {lineno}: ")


# Checks that span several lines name one: the later of two equal images, or
# the header of a [galois] section with too few images, of a [datum.conj]
# section with no entries.
@pytest.mark.parametrize("lines, lineno, message", [
    (_CONIC[:7] + ["conj = i"] + _CONIC[8:], 8,
     "automorphism images are not pairwise distinct"),
    (_CONIC[:6] + ["e = -i"] + _CONIC[7:], 8,
     "automorphism images are not pairwise distinct"),
    (_CONIC[:7] + _CONIC[8:], 6,
     "a Galois group of Q(α) with [L:Q]=2 needs exactly 2 automorphisms, got 1"),
    (_CONIC[:14], 14, "[datum.conj] has 0 components, expected 2"),
], ids=["conj-equals-e", "e-equals-conj", "one-image", "empty-datum"])
def test_check_across_lines_names_a_line(lines, lineno, message, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines))
    code, out, err = run(capsys, "verify-datum", str(path))
    assert code == 2
    assert out == ""
    assert err == f"input error: line {lineno}: {message}\n"


@pytest.mark.parametrize("message", [
    "identity automorphism (alpha -> alpha) is missing",
    "automorphisms are not closed under composition",
])
def test_group_error_names_the_galois_header(message, monkeypatch, capsys):
    # Distinct roots of a minimal polynomial, as many as its degree, always
    # include alpha and close under composition, so no file reaches these
    # checks; a GaloisGroup that fails them stands in.
    def failing_group(field, images):
        raise wd.InputError(message)

    monkeypatch.setattr(problemfile, "GaloisGroup", failing_group)
    code, _, err = run(capsys, "verify-datum", fixture_path("conic.txt"))
    assert code == 2
    assert err == f"input error: line 6: {message}\n"


def test_empty_claimed_map_names_its_header(tmp_path, capsys):
    start = _CLAIMED.index("[map]")
    end = _CLAIMED.index("", start)
    path = tmp_path / "claimed.txt"
    path.write_text("\n".join(_CLAIMED[:start + 1] + _CLAIMED[end:]))
    code, out, err = run(capsys, "check-model", fixture_path("conic.txt"),
                         "--claimed", str(path))
    assert code == 2
    assert out == ""
    assert err == f"input error: line {start + 1}: [map] has 0 components, expected 5\n"


# The conic x1^2 + x2^2 = 1 with a [datum.e] section: the variables
# themselves, or the constant map to its point (1, 0), which conj uses too.
# Constant maps send X into every conjugate and compose to themselves, so
# only the rule that f_e is the identity rejects the second.
_IDENTITY_SECTION = """\
[field]
minpoly = t^2 + 1
generator = i

[galois]
e = i
conj = -i

[variety]
variables = x1, x2
equation = x1^2 + x2^2 - 1

[datum.e]
component = {}
component = {}

[datum.conj]
component = {}
component = {}
"""


def test_identity_section_listing_the_variables_loads(tmp_path, capsys):
    path = tmp_path / "identity.txt"
    path.write_text(_IDENTITY_SECTION.format("x1", "x2", "x1", "x2"))
    code, out, _ = run(capsys, "verify-datum", str(path))
    assert code == 0
    assert "result = pass" in out


@pytest.mark.parametrize("command", ["verify-datum", "descend", "check-model"])
def test_constant_identity_section_exit_two(command, tmp_path, capsys):
    path = tmp_path / "constant.txt"
    path.write_text(_IDENTITY_SECTION.format("1", "0", "1", "0"))
    claimed = ["--claimed", fixture_path("conic_unpruned_result.txt")]
    code, out, err = run(capsys, command, str(path),
                         *(claimed if command == "check-model" else []))
    assert code == 2
    assert out == ""
    assert err == ("input error: line 14: "
                   "the identity's datum map must send x1 to itself\n")


@pytest.mark.parametrize("lineno, text", [
    (3, "equation = t4 + y"),
    (10, "component = i*x1 + x3"),
    (17, "component = -1/2*i*t1 + 1/2*"),
])
def test_bad_claimed_expression_names_its_line(lineno, text, tmp_path, capsys):
    claimed = _replace_line(_CLAIMED, lineno - 1, text, tmp_path / "bad.txt")
    code, _, err = run(capsys, "check-model", fixture_path("conic.txt"),
                       "--claimed", claimed)
    assert code == 2
    assert err.startswith(f"input error: line {lineno}: ")


def test_runtime_does_not_import_sympy():
    # sympy is a test oracle only: a fresh interpreter that loads every
    # fixture and runs a command must not import it.
    code = """
import os, sys
from weildescent import cli
from weildescent.problemfile import load_claimed_model, load_problem
fixtures = sys.argv[1]
problems = {name: load_problem(os.path.join(fixtures, name))
            for name in ("conic.txt", "stable.txt", "trivial.txt", "humbert.txt")}
load_claimed_model(os.path.join(fixtures, "humbert_claimed.txt"),
                   problems["humbert.txt"])
assert cli.main(["verify-datum", os.path.join(fixtures, "conic.txt")]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(fixture_path("conic.txt"))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# X is the two points 0 and 1 over Q(i); each datum map and claimed map
# below has a denominator that vanishes on a whole component, or on an
# embedded one, of its variety.
_TWO_POINTS = """\
[field]
minpoly = t^2 + 1
generator = i

[galois]
e = i
conj = -i

[variety]
variables = x1
equation = x1^2 - x1
"""
_UNDEFINED_AT_ZERO = _TWO_POINTS + "[datum.conj]\ncomponent = 1\ndenominator = x1\n"
# V(x1^2, x1*x2) is the line x1 = 0 with the origin embedded; x2 vanishes
# on the origin only.
_EMBEDDED = _TWO_POINTS.replace(
    "variables = x1\nequation = x1^2 - x1",
    "variables = x1, x2\nequation = x1^2\nequation = x1*x2",
) + "[datum.conj]\ncomponent = x1\ncomponent = x2^2 + x1\ndenominator = x2\n"
_ONTO_ONE_POINT = """\
[Y]
variables = t1
equation = t1 - 1

[map]
component = 1
denominator = x1

[inverse]
component = t1
"""


@pytest.mark.parametrize("text", [_UNDEFINED_AT_ZERO, _EMBEDDED],
                         ids=["component", "embedded"])
@pytest.mark.parametrize("command", ["verify-datum", "descend"])
def test_datum_undefined_on_a_component_exit_two(command, text, tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    problem.write_text(text)
    code, out, err = run(capsys, command, str(problem))
    assert (code, out) == (2, "")
    assert err == "input error: a map denominator vanishes on a component of the variety\n"


def test_claimed_map_undefined_on_a_component_fails(tmp_path, capsys):
    # R = 1/x1 maps the two points onto one: no birational map.
    problem = tmp_path / "problem.txt"
    problem.write_text(_TWO_POINTS + "[datum.conj]\ncomponent = x1\n")
    claimed = tmp_path / "claimed.txt"
    claimed.write_text(_ONTO_ONE_POINT)
    code, out, _ = run(capsys, "check-model", str(problem), "--claimed", str(claimed))
    assert code == 1
    assert ("FAIL  image containment  (witness: a map denominator vanishes on a "
            "component of the variety)") in out.splitlines()


def test_python_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "weildescent", "verify-datum", fixture_path("conic.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "result = pass"


class TestVerifyDatum:
    def test_golden_fixture_passes(self, capsys):
        code, out, err = run(capsys, "verify-datum", fixture_path("humbert.txt"))
        assert code == 0
        assert "result = pass" in out
        assert "FAIL" not in out

    def test_corrupted_datum_exit_one(self, tmp_path, capsys):
        text = read_fixture("humbert.txt").replace(
            "component = i*x2", "component = -1*i*x2"
        )
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run(capsys, "verify-datum", str(bad))
        assert code == 1
        assert "FAIL" in out
        assert "witness" in out

    def test_malformed_expression_exit_two(self, tmp_path, capsys):
        text = read_fixture("humbert.txt").replace(
            "component = i*x1", "component = i*(x1"
        )
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run(capsys, "verify-datum", str(bad))
        assert code == 2
        assert "position" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "verify-datum", "no-such-file.txt")
        assert code == 2

    def test_wrong_denominator_exit_one(self, tmp_path, capsys):
        # With x1 + i the datum is the identity, which misses X^conj.
        text = read_fixture("twisted_conic.txt").replace(
            "denominator = x1 - i", "denominator = x1 + i"
        )
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, _ = run(capsys, "verify-datum", str(bad))
        assert code == 1
        assert "FAIL  into-conjugate" in out

    def test_second_denominator_exit_two(self, tmp_path, capsys):
        text = read_fixture("twisted_conic.txt") + "denominator = x1 + i\n"
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run(capsys, "verify-datum", str(bad))
        assert code == 2
        assert out == ""
        assert "line 19: denominator without its own component" in err
        assert "Traceback" not in err

    def test_deeply_nested_equation_exit_two(self, tmp_path, capsys):
        deep = "(" * 2000 + "x1" + ")" * 2000
        text = read_fixture("humbert.txt").replace(
            "equation = 1 + x1^2 + x2^2", f"equation = 1 + {deep}^2 + x2^2"
        )
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, _, err = run(capsys, "verify-datum", str(bad))
        assert code == 2
        assert "nested" in err

    @pytest.mark.parametrize("old, new", [
        ("equation = x1^2 + x2^2 - i", "equation = x1^1000000 + x2^2 - i"),
        ("component = i*x2\n", "component = i*x2^100000\n"),
    ], ids=["equation", "datum"])
    def test_huge_exponent_stops_on_budget(self, tmp_path, capsys, monkeypatch,
                                           old, new):
        # Substituting the datum into x1^1000000, or composing the datum
        # i*x2^100000 with itself in the cocycle check, needs that many powers
        # of each component; the budget is charged for them before any is built.
        products = [0]

        def counted(fn):
            def wrapper(*args):
                products[0] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(wd.MultiPoly, "__mul__", counted(wd.MultiPoly.__mul__))
        table = multipoly._PowerTable
        monkeypatch.setattr(table, "_add_product", counted(table._add_product))
        text = read_fixture("conic.txt")
        assert old in text
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(old, new))
        code, _, err = run(capsys, "verify-datum", str(bad), "--budget", "1000")
        assert code == 3
        assert "resource limit" in err
        assert products[0] < 1000

    def test_claimed_power_of_a_sum_stops_on_budget(self, tmp_path, capsys):
        # check-model parses [Y] and [map] inside the run too.
        claimed = tmp_path / "claimed.txt"
        claimed.write_text(read_fixture("conic_unpruned_result.txt").replace(
            "equation = t4 + 1", "equation = (t1 + t2 + t3 + 1)^40 - 1"))
        start = time.perf_counter()
        code, out, err = run(capsys, "check-model", fixture_path("conic.txt"),
                             "--claimed", str(claimed), "--budget", "1000")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert "resource limit" in err

    def test_power_of_a_sum_stops_on_budget(self, tmp_path, capsys):
        # The parser spends a step per pair of terms it multiplies, before it
        # builds the product, so the 12,341 terms of (x1 + x2 + x3 + 1)^40
        # are never expanded under [options] budget = 1000.
        path = tmp_path / "power.txt"
        path.write_text(POWER_OF_A_SUM)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-datum", str(path))
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert "resource limit" in err

    def test_unknown_key_in_field_exit_two(self, tmp_path, capsys):
        # A misspelt key would otherwise be dropped without a word.
        text = read_fixture("conic.txt")
        assert "generator = i\n" in text
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace("generator = i\n", "generator = i\ngenrator = j\n"))
        code, out, err = run(capsys, "verify-datum", str(bad))
        assert code == 2
        assert out == ""
        assert "unknown key 'genrator' in [field]" in err

    def test_budget_covers_the_minimal_polynomial(self, tmp_path, capsys):
        # Each recombined subset of the irreducibility test spends a step of
        # the budget the problem is loaded with: 10 of the 100 steps of
        # loading.  The other 90 are the parser's, one per pair of terms
        # multiplied in the minimal polynomial and the images.
        path = tmp_path / "octic.txt"
        path.write_text(OCTIC_POINT)
        problem = load_problem(str(path), budget=DEFAULT_BUDGET)
        assert DEFAULT_BUDGET - problem.budget[0] == 100
        run_budget = [DEFAULT_BUDGET]
        with _run(run_budget):
            wd.NumberField(problem.field.minpoly, gen_name="a")
        assert DEFAULT_BUDGET - run_budget[0] == 10
        code, out, err = run(capsys, "verify-datum", str(path), "--budget", "5")
        assert code == 3
        assert out == ""
        assert "resource limit" in err
        code, out, _ = run(capsys, "verify-datum", str(path))
        assert code == 0
        assert out.endswith("result = pass\n")


class TestDescend:
    def test_golden_fixture(self, capsys):
        code, out, err = run(capsys, "descend", fixture_path("humbert.txt"))
        assert code == 0
        assert "[Y]" in out and "[map]" in out and "[certificates]" in out
        assert "= false" not in out

    def test_trivial_fixture_echoes_x(self, capsys):
        code, out, _ = run(capsys, "descend", fixture_path("trivial.txt"))
        assert code == 0
        assert "equation = -x1^3 + x2^2 - 1" in out
        assert "variables = x1, x2" in out

    def test_stable_fixture_short_circuits(self, capsys):
        code, out, _ = run(capsys, "descend", fixture_path("stable.txt"))
        assert code == 0
        assert "equation = x1^2 + x2^2 - 1" in out

    def test_stable_fixture_prunes(self, capsys, tmp_path):
        # X is sigma-stable and x2 a polynomial in x1: --prune drops x2,
        # takes R^-1 from the graph of R, and the document checks.
        problem = tmp_path / "parabola.txt"
        problem.write_text(read_fixture("stable.txt").replace(
            "equation = x1^2 + x2^2 - 1", "equation = x2 - x1^2"))
        code, out, _ = run(capsys, "descend", str(problem), "--prune")
        assert code == 0
        assert "variables = x1\n" in out
        assert "component = x1^2\n" in out
        assert "pruned = x2\n" in out
        document = tmp_path / "parabola_result.txt"
        document.write_text(out)
        code, out, _ = run(
            capsys, "check-model", str(problem), "--claimed", str(document)
        )
        assert code == 0
        assert "result = pass" in out

    def test_budget_starved_exit_three(self, capsys):
        code, _, err = run(
            capsys, "descend", fixture_path("humbert.txt"), "--budget", "5"
        )
        assert code == 3
        assert "resource limit" in err

    def test_budget_covers_loading(self, capsys):
        # The run's count includes the unit-ideal check made while loading:
        # the command loads, then descends on the same budget list.
        path = fixture_path("humbert.txt")
        problem = load_problem(path, budget=DEFAULT_BUDGET)
        assert problem.budget[0] < DEFAULT_BUDGET
        wd.descend(problem.datum, budget=problem.budget, prune=True)
        total = DEFAULT_BUDGET - problem.budget[0]
        code, _, _ = run(capsys, "descend", path, "--prune", "--budget", str(total))
        assert code == 0
        code, _, err = run(
            capsys, "descend", path, "--prune", "--budget", str(total - 1)
        )
        assert code == 3
        assert "resource limit" in err

    def test_determinism_byte_identical(self, capsys):
        outputs = []
        for name in ("humbert.txt", "conic.txt", "stable.txt", "trivial.txt"):
            _, first, _ = run(capsys, "descend", fixture_path(name), "--prune")
            _, second, _ = run(capsys, "descend", fixture_path(name), "--prune")
            assert first == second
            outputs.append(first)
        assert len(set(outputs)) == len(outputs)

    @pytest.mark.parametrize("name", ["conic.txt", "humbert.txt"])
    def test_order_flag_matches_order_option(self, name, tmp_path, capsys):
        with_option = tmp_path / name
        with_option.write_text(read_fixture(name) + "\n[options]\norder = lex\n")
        code, flagged, _ = run(capsys, "descend", fixture_path(name), "--order", "lex")
        assert code == 0
        code, optioned, _ = run(capsys, "descend", str(with_option))
        assert code == 0
        assert flagged == optioned

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "result.txt"
        code, out, _ = run(
            capsys, "descend", fixture_path("conic.txt"), "-o", str(out_file)
        )
        assert code == 0
        assert out == ""
        assert "[certificates]" in out_file.read_text()

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        out_file = tmp_path / "no-such-dir" / "result.txt"
        code, out, err = run(
            capsys, "descend", fixture_path("conic.txt"), "-o", str(out_file)
        )
        assert code == 2
        assert "cannot write" in err
        assert out == ""

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_refused_before_descent(self, where, tmp_path,
                                                      monkeypatch, capsys):
        def descend(*args, **kwargs):
            raise AssertionError("descend ran for an unwritable -o path")

        monkeypatch.setattr(cli, "descend", descend)
        out_file = tmp_path / "no-such-dir" / "result.txt"
        if where == "directory":
            out_file = tmp_path
        code, out, err = run(
            capsys, "descend", fixture_path("humbert.txt"), "-o", str(out_file)
        )
        assert code == 2
        assert f"cannot write {out_file}" in err
        assert out == ""

    def test_existing_output_kept_on_budget_exit(self, tmp_path, capsys):
        out_file = tmp_path / "result.txt"
        out_file.write_bytes(b"earlier result\n")
        code, _, err = run(
            capsys, "descend", fixture_path("humbert.txt"), "--budget", "5",
            "-o", str(out_file)
        )
        assert code == 3
        assert "resource limit" in err
        assert out_file.read_bytes() == b"earlier result\n"

    def test_prune_flag_gives_paper_model(self, capsys):
        code, out, _ = run(
            capsys, "descend", fixture_path("humbert.txt"), "--prune"
        )
        assert code == 0
        assert "variables = t1, t2, t3, t4" in out
        problem = __import__("weildescent.problemfile", fromlist=["*"])
        y_ring = wd.PolyRing(
            wd.NumberField([1, 0, 1], gen_name="i"), ("t1", "t2", "t3", "t4")
        )
        # Extract the emitted equations and compare ideals with the explicit model.
        eqs = [
            line.split("=", 1)[1].strip()
            for line in out.splitlines()
            if line.startswith("equation =")
        ]
        emitted = wd.Ideal(y_ring, [wd.parse_poly(e, y_ring) for e in eqs])
        paper = wd.Ideal(
            y_ring,
            [
                wd.parse_poly("4 + t3^2 - t2^2", y_ring),
                wd.parse_poly("t4^2 + t3*t2", y_ring),
                wd.parse_poly("t4^2 + t1^2 - 2", y_ring),
            ],
        )
        assert wd.ideals_equal(emitted, paper)

    def test_undecodable_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00")
        code, _, err = run(capsys, "descend", str(bad))
        assert code == 2
        assert "cannot read problem file" in err

    def test_unknown_section_exit_two(self, tmp_path, capsys):
        # A misspelt [options] would otherwise drop its budget without a word.
        bad = tmp_path / "bad.txt"
        bad.write_text(read_fixture("conic.txt") + "\n[optoins]\nbudget = 1\n")
        code, out, err = run(capsys, "descend", str(bad))
        assert code == 2
        assert out == ""
        assert "unknown section [optoins]" in err

    def test_no_inverse_flag(self, capsys):
        code, out, _ = run(
            capsys, "descend", fixture_path("conic.txt"), "--no-inverse"
        )
        assert code == 0
        assert "[inverse]" not in out
        assert "inverse_recovered = false" in out

    def test_out_of_memory_exit_three(self, monkeypatch, capsys):
        def descend(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "descend", descend)
        code, out, err = run(capsys, "descend", fixture_path("conic.txt"))
        assert code == 3
        assert err == "resource limit: out of memory\n"
        assert out == ""

    # [DERIVED] conic_half_result.txt is the document written for
    # conic_half.txt (minpoly t^2 + 1/4) before elements were stored as
    # integer numerators over a denominator; twisted_conic_result.txt, for a
    # datum with a denominator, before fractions were reduced in more than
    # two variables; the *_unpruned_result.txt documents, before eliminated
    # ideals kept the basis they were read from.
    @pytest.mark.parametrize("stem", list(DOCUMENTED_FIXTURES))
    def test_fixture_matches_its_document(self, stem, capsys):
        name, flags = DOCUMENTED_FIXTURES[stem]
        code, out, _ = run(capsys, "descend", fixture_path(f"{name}.txt"), *flags)
        assert code == 0
        assert out == read_fixture(f"{stem}_result.txt")


class TestCheckModel:
    def test_paper_claimed_model_accepted(self, capsys):
        code, out, _ = run(
            capsys,
            "check-model",
            fixture_path("humbert.txt"),
            "--claimed",
            fixture_path("humbert_claimed.txt"),
        )
        assert code == 0
        assert "result = pass" in out

    def test_sign_flipped_model_rejected(self, tmp_path, capsys):
        text = read_fixture("humbert_claimed.txt").replace(
            "equation = 4 + w2^2 - w3^2", "equation = 4 - w2^2 - w3^2"
        )
        bad = tmp_path / "claimed.txt"
        bad.write_text(text)
        code, out, _ = run(
            capsys,
            "check-model",
            fixture_path("humbert.txt"),
            "--claimed",
            str(bad),
        )
        assert code == 1
        assert "FAIL" in out and "witness" in out

    def test_corrupted_inverse_fails_both_directions(self, tmp_path, capsys):
        text = read_fixture("humbert_claimed.txt").replace(
            "component = 1/2*w1 - 1/2*i*w1", "component = 1/2*w1 - 1/2*i*w1 + 1"
        )
        bad = tmp_path / "claimed.txt"
        bad.write_text(text)
        code, out, _ = run(
            capsys,
            "check-model",
            fixture_path("humbert.txt"),
            "--claimed",
            str(bad),
        )
        assert code == 1
        lines = [l for l in out.splitlines() if "inverse composition" in l]
        assert len(lines) == 2
        assert all(l.startswith("FAIL") and "(witness: " in l for l in lines)

    def test_missing_component_exit_two(self, tmp_path, capsys):
        text = read_fixture("humbert_claimed.txt").replace(
            "component = (1 + i)*x4\n", ""
        )
        bad = tmp_path / "claimed.txt"
        bad.write_text(text)
        code, _, err = run(
            capsys,
            "check-model",
            fixture_path("humbert.txt"),
            "--claimed",
            str(bad),
        )
        assert code == 2
        assert "line 12: [map] has 3 components, expected 4" in err

    @pytest.mark.parametrize("section", ["Y", "map", "inverse"])
    def test_duplicate_section_exit_two(self, section, tmp_path, capsys):
        text = read_fixture("humbert_claimed.txt")
        start = text.index(f"[{section}]")
        end = text.find("\n\n", start)
        repeated = text[start:] if end < 0 else text[start:end + 1]
        bad = tmp_path / "claimed.txt"
        bad.write_text(text + "\n" + repeated)
        code, out, err = run(
            capsys,
            "check-model",
            fixture_path("humbert.txt"),
            "--claimed",
            str(bad),
        )
        assert code == 2
        assert out == ""
        assert f"duplicate section [{section}]" in err

    def test_unknown_key_in_y_exit_two(self, tmp_path, capsys):
        # Dropping the misspelt equations would leave Y the whole space,
        # which every map lands in.
        text = read_fixture("conic_unpruned_result.txt")
        text = text.replace("equation = ", "equaton = ")
        text = text[:text.index("[inverse]")] + text[text.index("[certificates]"):]
        bad = tmp_path / "claimed.txt"
        bad.write_text(text)
        code, out, err = run(
            capsys, "check-model", fixture_path("conic.txt"), "--claimed", str(bad)
        )
        assert code == 2
        assert out == ""
        assert "unknown key 'equaton' in [Y]" in err

    @pytest.mark.parametrize("name", ["i", "t-4"])
    def test_bad_variable_name_in_y_exit_two(self, name, tmp_path, capsys):
        # Named like the generator, t4 would parse as i in every equation.
        bad = tmp_path / "claimed.txt"
        bad.write_text(read_fixture("conic_unpruned_result.txt").replace("t4", name))
        code, out, err = run(
            capsys, "check-model", fixture_path("conic.txt"), "--claimed", str(bad)
        )
        assert code == 2
        assert out == ""
        assert f"invalid variable name {name!r} in [Y]" in err

    def test_unknown_section_in_claimed_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "claimed.txt"
        text = read_fixture("humbert_claimed.txt") + "\n[options]\nprune = true\n"
        bad.write_text(text)
        code, out, err = run(
            capsys,
            "check-model",
            fixture_path("humbert.txt"),
            "--claimed",
            str(bad),
        )
        assert code == 2
        assert out == ""
        assert "unknown section [options]" in err

    def test_undecodable_claimed_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "claimed.txt"
        bad.write_bytes(b"\xff\xfe\x00")
        code, _, err = run(
            capsys,
            "check-model",
            fixture_path("humbert.txt"),
            "--claimed",
            str(bad),
        )
        assert code == 2
        assert "cannot read claimed document" in err

    def test_round_trip_descend_then_check(self, tmp_path, capsys):
        out_file = tmp_path / "result.txt"
        code, _, _ = run(
            capsys,
            "descend",
            fixture_path("conic.txt"),
            "--prune",
            "-o",
            str(out_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "check-model",
            fixture_path("conic.txt"),
            "--claimed",
            str(out_file),
        )
        assert code == 0
        assert "result = pass" in out

    @pytest.mark.parametrize("stem", list(DOCUMENTED_FIXTURES))
    def test_fixture_document_passes(self, stem, capsys):
        name, _ = DOCUMENTED_FIXTURES[stem]
        code, out, _ = run(
            capsys,
            "check-model",
            fixture_path(f"{name}.txt"),
            "--claimed",
            fixture_path(f"{stem}_result.txt"),
        )
        assert code == 0
        assert "result = pass" in out
