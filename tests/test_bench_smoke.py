"""One pass of every benchmark workload, with the benchmark's own output checks.

The workloads under ``bench/`` check each job against references computed
without the package; this runs one pass of each at seed 1 so that a change
that breaks an output fails here, not only in a benchmark run.  One traced
pass of ``influence`` checks that the span tracer still finds the probes it
wraps by name and that the robustness counters it reports are fed, and one
traced pass of ``chains`` does the same for the sampler's counters, so a
refactor that drops a probe or starves a counter fails here, not in a traced
run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import dpdbayes

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_modules(*names):
    sys.path.insert(0, str(BENCH))
    try:
        return tuple(importlib.import_module(name) for name in names)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def bench():
    return _bench_modules("harness", "workloads")


@pytest.fixture(scope="module")
def spans():
    return _bench_modules("spans")[0]


@pytest.mark.parametrize("name", ["chains", "influence", "fits"])
def test_one_pass_fails_no_job(name, bench, tmp_path, monkeypatch):
    harness, workloads = bench
    monkeypatch.delenv("DPDBAYES_OUTPUT_DIR", raising=False)
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.references()
    outcome = harness.run_pass(workload.jobs())
    failed = [f"{job.name}: {job.tally.failures}" for job in outcome.jobs if not job.ok]
    assert len(outcome.jobs) > 0
    assert failed == []


def _package_attributes(layers):
    """Every attribute of the package and of its layer modules, and every
    entry of their classes' dictionaries."""
    modules = [dpdbayes] + [importlib.import_module(f"dpdbayes.{layer}") for layer in layers]
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            found[(module.__name__, name)] = obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    found[(module.__name__, name, attr)] = member
    return found


def test_traced_influence_pass_records_the_probes(bench, spans, tmp_path, monkeypatch):
    harness, workloads = bench
    monkeypatch.delenv("DPDBAYES_OUTPUT_DIR", raising=False)
    workload = workloads.WORKLOADS["influence"](1, tmp_path)
    workload.references()
    jobs = workload.jobs()
    before = _package_attributes(spans.LAYERS)
    tracer = spans.Tracer()
    tracer.install(dpdbayes)
    try:
        outcome = harness.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    failed = [f"{job.name}: {job.tally.failures}" for job in outcome.jobs if not job.ok]
    assert failed == []
    recorded = {tracer.names[i] for i in tracer.name}
    assert "robustness._summed_scores" in recorded
    assert "robustness._TwoScaleProposal.sample_batch" in recorded
    metrics = spans.summarize(tracer, 1)
    assert metrics["robustness.t_points"] == 924
    assert metrics["robustness.optimizer_evals"] == 0
    assert metrics["robustness.scores_ms_per_point"] > 0
    after = _package_attributes(spans.LAYERS)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_chains_pass_feeds_the_sampler_counters(bench, spans, tmp_path, monkeypatch):
    harness, workloads = bench
    monkeypatch.delenv("DPDBAYES_OUTPUT_DIR", raising=False)
    workload = workloads.WORKLOADS["chains"](1, tmp_path)
    workload.references()
    jobs = workload.jobs()
    tracer = spans.Tracer()
    tracer.install(dpdbayes)
    try:
        outcome = harness.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    failed = [f"{job.name}: {job.tally.failures}" for job in outcome.jobs if not job.ok]
    assert failed == []
    metrics = spans.summarize(tracer, 1)
    assert metrics["posterior.steps"] > 0
    assert metrics["posterior.prior_s"] > 0
    assert metrics["posterior.us_per_step_n25"] > 0
    # Prefetched chains pass several candidate rows per log-posterior call.
    assert metrics["models.rows_per_call"] > 1
