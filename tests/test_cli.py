import pytest

import weildescent as wd
from weildescent.cli import main
from weildescent.problemfile import load_problem
from tests.conftest import fixture_path, read_fixture


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_budget_starved_exit_three(self, capsys):
        code, _, err = run(
            capsys, "descend", fixture_path("humbert.txt"), "--budget", "5"
        )
        assert code == 3
        assert "resource limit" in err

    def test_budget_covers_loading(self, kernel_steps, capsys):
        # The run's count includes the unit-ideal check made while loading.
        path = fixture_path("humbert.txt")
        code, _, _ = run(capsys, "descend", path, "--prune")
        assert code == 0
        total = kernel_steps[0]
        kernel_steps[0] = 0
        load_problem(path)
        assert kernel_steps[0] > 0
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

    def test_no_inverse_flag(self, capsys):
        code, out, _ = run(
            capsys, "descend", fixture_path("conic.txt"), "--no-inverse"
        )
        assert code == 0
        assert "[inverse]" not in out
        assert "inverse_recovered = false" in out


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
