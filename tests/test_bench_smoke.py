"""One pass of every benchmark workload, with the benchmark's own output checks.

The workloads under ``bench/`` check each job against references computed
without the package; this runs one pass of each at seed 1 so that a change
that breaks an output fails here, not only in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import harness
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return harness, workloads


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
