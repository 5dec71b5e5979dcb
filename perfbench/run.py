#!/usr/bin/env python3
"""End-to-end benchmark of the descent pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``src/``
there, the Humbert fixtures are read from ``tests/fixtures/``, and scratch
files go to ``.perfbench/`` (removed again, except the span dump of a traced
run).  One process, one client, closed loop: inputs run one after another.

The inputs come from ``--seed`` alone (see ``gen.py`` and ``workloads.py``).
A batch is one pass over the workload's inputs; batches repeat for
``--seconds``.  Each input's wall time is split into laps at the entry to and
exit from the functions of ``tracing.LAP_POINTS``; the program makes the same
calls in every batch, so lap k of one batch matches lap k of the next.  An
input's time is the sum over its laps of each lap's minimum over the batches
(min-of-N, so the first batch's one-off costs drop out too): ``batch_s`` is
the sum over inputs and ``problem_max_s`` the largest.  On a shared host,
bursts of other load slow a whole input by a third in most batches, but
they seldom cover every batch's copy of a lap that lasts milliseconds.
``setup_s`` is the median of several fresh interpreters.  ``fail_frac``
(failed inputs / inputs) is printed on its own line; the JSON result carries
it as ``failed`` and ``attempted``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with the layer wrappers of ``tracing.py`` installed,
and prints the per-layer metrics.  The last stdout line is the JSON result;
the line before it is the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_BATCHES = 3
SETUP_RUNS = 7          # timed fresh interpreters, after one untimed warm-up


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _timed_batches(batch, seconds):
    """``batch(k)`` for k = 0, 1, ... for `seconds`, and at least MIN_BATCHES
    times: after MIN_BATCHES, no batch starts that would end past the deadline
    if it took as long as the one before."""
    out = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        out.append(batch(len(out)))
        t1 = time.perf_counter()
        if len(out) >= MIN_BATCHES and 2 * t1 - t0 > deadline:
            return out


def _setup_seconds(src, paths):
    """Set-up times of SETUP_RUNS fresh interpreters."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), src] + paths
    samples = []
    for k in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if k:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(runner, args, src, workdir, meta):
    problem_files = [os.path.join(workdir, f"{c.name}.problem.txt") for c in runner.cases]
    setup = _setup_seconds(src, problem_files)
    # Per input, each lap's minimum over the batches since the input's lap
    # count last changed (a batch whose calls differ, say one that fills a
    # cache, does not line up).  Folded batch by batch, so that the laps of
    # past batches do not add to the peak memory measured below.
    lap_min = {}

    def batch(k):
        batch_s, times = runner.batch(k)
        for name, laps in times.items():
            prev = lap_min.get(name)
            if prev is None or len(prev) != len(laps):
                lap_min[name] = laps
            else:
                lap_min[name] = list(map(min, prev, laps))
        return batch_s

    laps = tracing.Laps()
    laps.install()
    runner.laps = laps
    try:
        batches = _timed_batches(batch, args.seconds)
    finally:
        laps.uninstall()
        runner.laps = None
    runner.round_trip()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = {name: sum(mins) for name, mins in lap_min.items()}
    meta["batch_s_samples"] = batches
    meta["input_s_best"] = best
    meta["laps_per_batch"] = sum(map(len, lap_min.values()))
    meta["absent_lap_points"] = laps.absent
    meta["setup_s_samples"] = setup
    return {
        "batch_s": _metric(sum(best.values()), "s"),
        "problem_max_s": _metric(max(best.values()), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(rss_kib / 1024, "MiB"),
    }, len(batches)


def _per_layer(runner, args, root, meta):
    plain = _timed_batches(runner.batch, args.seconds / 2)
    tracer = tracing.Tracer()
    samples = []

    def traced_batch(k):
        mark = tracer.mark()
        batch_s, _ = runner.batch(len(plain) + k)
        samples.append(tracer.metrics_since(mark))
        return batch_s

    tracer.install()
    runner.tracer = tracer
    try:
        traced = _timed_batches(traced_batch, args.seconds / 2)
    finally:
        tracer.uninstall()
        runner.tracer = None
    runner.round_trip()
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        metrics[name] = _metric(statistics.median(s[name] for s in samples), unit)
    plain_s = statistics.median(b for b, _ in plain)
    traced_s = statistics.median(traced)
    metrics["trace.batch_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_ratio"] = _metric(traced_s / plain_s, "ratio")
    meta["absent_wrappers"] = tracer.absent
    path = os.path.join(root, ".perfbench", f"spans-{args.workload}-seed{args.seed}.json")
    tracer.dump(path, meta)
    meta["spans_file"] = os.path.relpath(path, root)
    return metrics, len(plain) + len(traced)


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    needed = [os.path.join(src, "weildescent", "__init__.py"),
              os.path.join(root, workloads.HUMBERT),
              os.path.join(root, workloads.HUMBERT_CLAIMED)]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a weildescent checkout; missing "
              f"{', '.join(os.path.relpath(p, root) for p in missing)}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    sys.path.insert(0, src)
    import sympy
    import weildescent

    cases = workloads.build(args.workload, args.seed, root)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(cases),
        "inputs_digest": workloads.inputs_digest(cases),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "kernel": weildescent.kernel_implementation,
        "loadavg_at_start": load_at_start,
    }
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=outdir)
    try:
        workloads.write_inputs(cases, workdir)
        runner = workloads.Runner(cases, workdir)
        if args.trace:
            metrics, batches = _per_layer(runner, args, root, meta)
        else:
            metrics, batches = _end_to_end(runner, args, src, workdir, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = runner.failed()
    meta["batches"] = batches
    meta["results_digest"] = runner.outputs_digest()
    meta["failures"] = failed
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':<30} {len(failed) / len(cases):.6g} ratio")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(cases),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
