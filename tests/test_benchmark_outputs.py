"""The benchmark's outputs, pinned: one batch of each gated workload.

perfbench/workloads.py is imported as it is, read-only.  Its outputs_digest
covers every result document (quadratic-prune) or every exit code and report
(verify-cli) of one batch, so a change that moves any of them fails here, in
Tier-1, before a benchmark run would report a new results_digest.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

OUTPUTS_DIGEST = {
    ("quadratic-prune", 1): "77574a28d0e56b9aadc5b2cc1384a880a11b39e27c8c318dc40544023a657521",
    ("quadratic-prune", 2): "82069e79bfa4edd95deab133ed4edf669dbee8587ecbc68a71471019329cf210",
    ("verify-cli", 1): "16f50e43f2e0feab6159b6cd490f903d8ac90457068e7b064664820c5e201a59",
    ("verify-cli", 2): "95ed0b0e44c995a581733bb640d0f7a1b934f8f0f18c88ae29961da488a9cc74",
}


@pytest.mark.parametrize("workload, seed", sorted(OUTPUTS_DIGEST))
def test_outputs_digest_is_pinned(workload, seed, tmp_path):
    cases = workloads.build(workload, seed, ROOT)
    workloads.write_inputs(cases, str(tmp_path))
    runner = workloads.Runner(cases, str(tmp_path))
    runner.batch(0)
    runner.round_trip()
    assert runner.failed() == {}
    assert runner.outputs_digest() == OUTPUTS_DIGEST[workload, seed]
