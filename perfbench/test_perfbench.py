"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench

The traced runs here use a few items per workload, not whole passes.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("flow.rhs_calls", "flow.tasks", "ode.accepted", "ode.rejected",
          "oracle.sturm_calls", "models.certify_rounds")
SUBSETS = {"ensemble": slice(0, 2), "fig1": slice(1, 2), "lipkin-chain": slice(0, 1)}


def _key(item) -> tuple:
    if isinstance(item, workloads.Fig1Point):
        return (item.delta, item.lam)
    return tuple(item.band(k).tobytes() for k in range(item.bandwidth + 1))


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of the same items per workload, checked like a real run."""
    runs = {}
    for name, subset in SUBSETS.items():
        workload = workloads.WORKLOADS[name]
        items = workload.inputs(0)[subset]
        tracers = []
        for _ in range(2):
            tracer = tracing.Tracer()
            m = run.measure(workload, items, 0.0, tracer)
            assert not run.check(workload, items, m["runs"] + m["traced"])
            tracers.append(tracer)
        runs[name] = tracers
    return runs


def test_seed0_ensemble_is_the_acceptance_recipe():
    spec = importlib.util.spec_from_file_location(
        "acceptance", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    items = workloads.ensemble_inputs(0)
    assert len(items) == acceptance.N_SEEDS
    assert workloads.ENSEMBLE_CONFIG.snapshot_ells == acceptance.ENSEMBLE_SNAPS
    for seed, h in enumerate(items):
        assert _key(h) == _key(acceptance._random_banded(seed))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_nonzero_seed_changes_inputs(name):
    inputs = workloads.WORKLOADS[name].inputs
    keys = {seed: [_key(item) for item in inputs(seed)] for seed in (0, 1, 2)}
    assert keys[1] == [_key(item) for item in inputs(1)]
    assert len(keys[1]) == len(keys[0])
    assert keys[1] != keys[0] and keys[2] != keys[1]


def test_counts_repeat_exactly(traced_runs):
    for name, (a, b) in traced_runs.items():
        ma, mb = a.layer_metrics(0.0), b.layer_metrics(0.0)
        assert {k: ma[k] for k in COUNTS} == {k: mb[k] for k in COUNTS}, name
        assert ma["flow.rhs_calls"] > 0 and ma["ode.accepted"] > 0 and ma["flow.tasks"] > 0
        assert (ma["oracle.sturm_calls"] > 0) == (name == "fig1")
        assert (ma["models.certify_rounds"] > 0) == (name == "fig1")


def test_spans_nest(traced_runs):
    s = traced_runs["fig1"][0].spans()
    name = np.array(tracing.SPAN_NAMES)[s["name"]]
    parent = s["parent"]
    child = parent >= 0
    p = parent[child]
    assert np.all(s["t0"][p] <= s["t0"][child])
    assert np.all(s["t1"][child] <= s["t1"][p])
    assert np.all(s["item"][child] == s["item"][p])

    def parents_of(n):
        return set(name[parent[name == n]])

    assert parents_of(tracing.RHS) == {tracing.STEP, tracing.INTEGRATE}
    assert parents_of(tracing.STEP) == {tracing.INTEGRATE}
    assert parents_of(tracing.INTEGRATE) == {tracing.ITEM}
    assert parents_of(tracing.TRIDIAG) == {tracing.CERTIFY}
    assert parents_of(tracing.STURM) == {tracing.TRIDIAG}
    assert np.all(parent[name == tracing.ITEM] == -1)


def test_gates_reject_a_wrong_spectrum():
    params = workloads.models.LipkinParams(xi0=1.0, v0=0.5 / 400, two_j=200)
    h = workloads.models.build_lipkin_blocks(params)[0]
    res = workloads.lipkin_solve(h)
    assert workloads.lipkin_check(h, res) == []
    diag = res.final.diagonal().copy()
    exact = np.linalg.eigvalsh(h.to_dense())
    assert workloads._spectrum_gate(diag, exact) == []
    diag[3] += 1e-6 * np.max(np.abs(diag))
    assert workloads._sturm_gate(h, diag)
    assert workloads._spectrum_gate(diag, exact)
