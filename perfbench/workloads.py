"""The benchmark's workloads: seeded inputs, one batch, and the checks.

quadratic-prune  descend(prune=True) over Q(i) and Q(sqrt 2): the golden
                 Humbert fixture plus seeded space curves.  Buchberger in
                 block orders (image ideal, pruning, inverse) dominates.
higher-degree    descend(prune=False) over the cyclic cubic, the biquadratic
                 field and Q(zeta_5): seeded one-variable problems, two of
                 them through the origin so disjointify fires.  Invariant
                 generation and degree-3/4 field arithmetic dominate, and the
                 cubic through-origin inputs repeat one (group, block size).
                 Run it by hand: it is not in BENCHMARK.json, because its
                 batches are so long that on a shared 2-vCPU host too few of
                 them fit in a run for the lap minima to settle.
verify-cli       in-process ``weildescent.cli.main`` on files: verify-datum
                 and check-model on valid, corrupted and malformed inputs,
                 each with its expected exit code.  Normal forms, map
                 composition and file loading dominate.

Each case is one input; an input fails when any check on it fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time

import gen

HUMBERT = os.path.join("tests", "fixtures", "humbert.txt")
HUMBERT_CLAIMED = os.path.join("tests", "fixtures", "humbert_claimed.txt")

WORKLOADS = ("quadratic-prune", "higher-degree", "verify-cli")

EXIT_OK, EXIT_VERIFICATION, EXIT_INPUT = 0, 1, 2


class DescendCase:
    """descend() on one problem text; the result document is the output."""

    def __init__(self, name, text, prune):
        self.name = name
        self.text = text
        self.prune = prune

    def inputs(self):
        return [(f"{self.name}.problem.txt", self.text)]


class CliCase:
    """One in-process CLI call with the exit code fixed by construction."""

    def __init__(self, name, command, text, claimed, expect):
        self.name = name
        self.command = command
        self.text = text
        self.claimed = claimed
        self.expect = expect

    def inputs(self):
        files = [(f"{self.name}.problem.txt", self.text)]
        if self.claimed is not None:
            files.append((f"{self.name}.claimed.txt", self.claimed))
        return files

    def argv(self, workdir):
        argv = [self.command, os.path.join(workdir, f"{self.name}.problem.txt")]
        if self.claimed is not None:
            argv += ["--claimed", os.path.join(workdir, f"{self.name}.claimed.txt")]
        return argv


def _read(root, rel):
    with open(os.path.join(root, rel), "r", encoding="utf-8") as fh:
        return fh.read()


def build(workload, seed, root, tiny=False):
    """The cases of a workload; the same seed gives the same texts."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "quadratic-prune":
        return _quadratic_prune(rng, root, tiny)
    if workload == "higher-degree":
        return _higher_degree(rng, tiny)
    if workload == "verify-cli":
        return _verify_cli(rng, root)
    raise ValueError(f"unknown workload {workload!r}")


def _quadratic_prune(rng, root, tiny):
    fields = ["Qi"] if tiny else ["Qi", "Qsqrt2"]
    curves = [gen.space_curve(rng, key, f"curve-{key}") for key in fields]
    cases = [] if tiny else [DescendCase("humbert", _read(root, HUMBERT), True)]
    return cases + [DescendCase(p.name, p.problem_text(), True) for p in curves]


def _higher_degree(rng, tiny):
    specs = [("cubic", False), ("zeta5", False)] if tiny else [
        ("cubic", True), ("cubic", True), ("cubic", False),
        ("biquad", False), ("zeta5", False),
    ]
    cases = []
    for k, (key, origin) in enumerate(specs):
        p = gen.point_pair(rng, key, f"points{k}-{key}{'-origin' if origin else ''}", origin)
        cases.append(DescendCase(p.name, p.problem_text(), False))
    return cases


def _syntax_error(text, kind):
    """Add or change one token of the first equation so that it cannot parse."""
    lines = text.split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("equation = "))
    expr = lines[k][len("equation = "):]
    if kind == 0:
        expr = expr.replace("x1", "x9", 1)     # undeclared variable
    elif kind == 1:
        expr = expr + " +"                     # operator with no operand
    else:
        expr = "(" + expr                      # unbalanced parenthesis
    lines[k] = "equation = " + expr
    return "\n".join(lines)


def _reducible_minpoly(F):
    """The minimal polynomial with its constant term moved so that t = 1 is a root."""
    coeffs = list(F.minpoly)
    coeffs[0] = -sum(coeffs[1:])
    return gen.minpoly_text(coeffs)


def _verify_cli(rng, root):
    problems = [
        gen.space_curve(rng, "Qi", "curve-Qi"),
        gen.space_curve(rng, "Qsqrt2", "curve-Qsqrt2"),
        gen.point_pair(rng, "cubic", "points-cubic-origin", True),
        gen.point_pair(rng, "zeta5", "points-zeta5", False),
    ]
    cases = []
    for k, p in enumerate(problems):
        F = p.F
        text = p.problem_text()
        # A constant added to one datum component: X^sigma would have to be
        # invariant under a translation along that axis.  A nonempty finite
        # set never is, and the first quadric of a space curve changes along
        # every axis.
        datum = [list(forms) for forms in p.datum]
        j = rng.randrange(p.n)
        datum[0][j] = gen.p_add(F, datum[0][j], gen.p_const(F, p.n, F.one()))
        # A constant added to one Y equation: on X it reduces to 1, not 0.
        y_eqs = list(p.y0)
        y_eqs[0] = gen.p_add(F, y_eqs[0], gen.p_const(F, p.n, F.one()))
        cases += [
            CliCase(f"datum-ok-{p.name}", "verify-datum", text, None, EXIT_OK),
            CliCase(f"datum-bad-{p.name}", "verify-datum",
                    p.problem_text(datum=datum), None, EXIT_VERIFICATION),
            CliCase(f"model-ok-{p.name}", "check-model", text, p.claimed_text(), EXIT_OK),
            CliCase(f"model-bad-{p.name}", "check-model", text,
                    p.claimed_text(y_eqs=y_eqs), EXIT_VERIFICATION),
            CliCase(f"syntax-{p.name}", "verify-datum",
                    _syntax_error(text, k % 3), None, EXIT_INPUT),
            CliCase(f"minpoly-{p.name}", "verify-datum",
                    p.problem_text(minpoly=_reducible_minpoly(F)), None, EXIT_INPUT),
        ]
    cases.append(CliCase("model-ok-humbert", "check-model", _read(root, HUMBERT),
                         _read(root, HUMBERT_CLAIMED), EXIT_OK))
    return cases


def inputs_digest(cases):
    """sha256 over every input file's name and bytes, in case order."""
    h = hashlib.sha256()
    for case in cases:
        for name, text in case.inputs():
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def write_inputs(cases, workdir):
    for case in cases:
        for name, text in case.inputs():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


class Runner:
    """Runs batches of one workload and records every failed check per input."""

    def __init__(self, cases, workdir, tracer=None, laps=None):
        import weildescent.cli
        import weildescent.descent
        import weildescent.problemfile

        self.cases = cases
        self.workdir = workdir
        self.tracer = tracer
        self.laps = laps         # tracing.Laps: split each input's time into laps
        self.cli = weildescent.cli
        self.descent = weildescent.descent
        self.problemfile = weildescent.problemfile
        self.failures = {case.name: [] for case in cases}
        self.outputs = {}        # case name -> output of the first batch

    def _fail(self, case, why):
        if why not in self.failures[case.name]:
            self.failures[case.name].append(why)

    def _input(self, rep, case):
        if self.tracer is not None:
            self.tracer.input_id = f"{rep}:{case.name}"

    def _start(self):
        if self.laps is not None:
            self.laps.clear()
        return time.perf_counter()

    def _laps(self, t0):
        """The input's lap times since `t0`: one lap unless laps are on."""
        t1 = time.perf_counter()
        return [t1 - t0] if self.laps is None else self.laps.split(t0, t1)

    def batch(self, rep):
        """One pass over the inputs: (batch seconds, {case: lap seconds})."""
        if isinstance(self.cases[0], DescendCase):
            return self._descend_batch(rep)
        return self._cli_batch(rep)

    def _descend_batch(self, rep):
        # Loading is set-up: done before the clock starts, fresh for every
        # batch so that no basis cached on an ideal carries over.
        loaded = []
        for case in self.cases:
            self._input(rep, case)
            loaded.append(self.problemfile.load_problem_text(case.text))
        times, results = {}, {}
        start = time.perf_counter()
        for case, problem in zip(self.cases, loaded):
            self._input(rep, case)
            t0 = self._start()
            try:
                result = self.descent.descend(problem.datum, prune=case.prune)
                results[case.name] = (result, self.problemfile.render_result(result))
            except Exception as exc:  # any exception is a failed input, not a crash
                results[case.name] = exc
            times[case.name] = self._laps(t0)
        batch_s = time.perf_counter() - start
        for case in self.cases:
            self._check_descend(case, results[case.name])
        return batch_s, times

    def _check_descend(self, case, outcome):
        if isinstance(outcome, Exception):
            self._fail(case, f"descend raised {type(outcome).__name__}: {outcome}")
            return
        result, doc = outcome
        false = sorted(k for k, v in result.certificates.items() if not v)
        if false:
            self._fail(case, f"false certificates: {', '.join(false)}")
        if result.inverse is None:
            self._fail(case, "inverse expected, got None")
        first = self.outputs.setdefault(case.name, doc)
        if doc != first:
            self._fail(case, "result document differs between repetitions")

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failure of the input
                code = f"raised {type(exc).__name__}: {exc}"
        return code, out.getvalue()

    def _cli_batch(self, rep):
        times = {}
        start = time.perf_counter()
        outcomes = []
        for case in self.cases:
            self._input(rep, case)
            t0 = self._start()
            outcomes.append(self._call(case.argv(self.workdir)))
            times[case.name] = self._laps(t0)
        batch_s = time.perf_counter() - start
        for case, (code, report) in zip(self.cases, outcomes):
            if code != case.expect:
                self._fail(case, f"exit code {code}, expected {case.expect}")
            first = self.outputs.setdefault(case.name, f"exit {code}\n{report}")
            if f"exit {code}\n{report}" != first:
                self._fail(case, "report differs between repetitions")
        return batch_s, times

    def round_trip(self):
        """Feed each result document back through check-model; expect exit 0."""
        if not isinstance(self.cases[0], DescendCase):
            return
        for case in self.cases:
            doc = self.outputs.get(case.name)
            if doc is None:
                continue
            problem = os.path.join(self.workdir, f"{case.name}.problem.txt")
            claimed = os.path.join(self.workdir, f"{case.name}.result.txt")
            with open(claimed, "w", encoding="utf-8") as fh:
                fh.write(doc)
            code, _ = self._call(["check-model", problem, "--claimed", claimed])
            if code != EXIT_OK:
                self._fail(case, f"check-model on the result document: exit {code}")

    def outputs_digest(self):
        h = hashlib.sha256()
        for case in self.cases:
            h.update(case.name.encode() + b"\0")
            h.update(self.outputs.get(case.name, "").encode() + b"\0")
        return h.hexdigest()

    def failed(self):
        return {name: why for name, why in self.failures.items() if why}
