"""Fast self-check of the benchmark itself.

    python3 -m pytest -q perfbench

Checks that inputs are a function of the seed, that every verify-cli variant
ends with the exit code it was built to give, that each workload runs one
batch at a tiny size with no failed input, and that the tracer finds every
function it wraps.
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _size(cases):
    return sum(len(text) for case in cases for _, text in case.inputs())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first = [workloads.build(workload, seed, ROOT) for seed in (1, 2)]
    again = [workloads.build(workload, seed, ROOT) for seed in (1, 2)]
    digests = [workloads.inputs_digest(c) for c in first]
    assert digests == [workloads.inputs_digest(c) for c in again]
    assert digests[0] != digests[1]
    assert len(first[0]) == len(first[1])
    assert 0.5 < _size(first[0]) / _size(first[1]) < 2


def test_generator_does_not_import_the_program():
    code = ("import sys, gen, random; gen.space_curve(random.Random(0), 'Qi', 'c');"
            "sys.exit(any(m.startswith('weildescent') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


def _run_once(cases, tmp_path, tracer=None):
    workloads.write_inputs(cases, str(tmp_path))
    runner = workloads.Runner(cases, str(tmp_path), tracer)
    runner.batch(0)
    runner.round_trip()
    return runner


def test_every_verify_cli_variant_gives_its_exit_code(tmp_path):
    cases = workloads.build("verify-cli", 3, ROOT)
    assert {c.expect for c in cases} == {0, 1, 2}
    runner = _run_once(cases, tmp_path)
    assert runner.failed() == {}


@pytest.mark.parametrize("workload", ["quadratic-prune", "higher-degree"])
def test_tiny_descend_workload_passes_every_check(workload, tmp_path):
    runner = _run_once(workloads.build(workload, 3, ROOT, tiny=True), tmp_path)
    assert runner.failed() == {}
    assert all(runner.outputs.values())


def test_tracer_wraps_every_layer_and_restores_it(tmp_path):
    import weildescent.descent

    original = weildescent.descent.normal_form
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        _run_once(workloads.build("higher-degree", 3, ROOT, tiny=True), tmp_path, tracer)
        metrics = tracer.metrics_since(mark)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert weildescent.descent.normal_form is original
    assert metrics["kernel.buchberger_steps"] > 0
    assert metrics["groebner.groebner_calls"] > 0
    assert metrics["invariants.kept"] <= metrics["invariants.orbit_sums"]
    assert 0 < metrics["kernel.buchberger_s"] <= metrics["descent.descend_s"]


def test_laps_split_each_input_and_line_up_across_batches(tmp_path):
    import weildescent.descent

    original = weildescent.descent.normal_form
    cases = workloads.build("quadratic-prune", 3, ROOT, tiny=True)
    workloads.write_inputs(cases, str(tmp_path))
    laps = tracing.Laps()
    laps.install()
    try:
        runner = workloads.Runner(cases, str(tmp_path), laps=laps)
        batches = [runner.batch(rep) for rep in range(2)]
    finally:
        laps.uninstall()
    assert laps.absent == []
    assert weildescent.descent.normal_form is original
    assert runner.failed() == {}
    for batch_s, times in batches:
        runs = list(times.values())
        assert all(len(r) > 100 for r in runs)
        assert sum(map(sum, runs)) <= batch_s
    first, second = (t[cases[0].name] for _, t in batches)
    assert len(first) == len(second)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
