"""Closed-loop job runner, output-check bookkeeping and metric reduction.

A workload is a fixed list of jobs built from the seed.  One pass runs every
job once, in order, with one caller; a run repeats passes until its time is
used.  A job is one operation: it is attempted once per pass and fails when
it raises or when any of its output checks fails.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Tally:
    """What one job reports: work done, time inside the calls doing it,
    effective posterior draws produced, failed checks, and counters for the
    traced run."""

    work: float = 0.0
    work_s: float = 0.0
    ess: float = 0.0
    failures: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @contextmanager
    def timed(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.work_s += perf_counter() - t0


@dataclass
class JobOutcome:
    name: str
    seconds: float
    tally: Tally

    @property
    def ok(self) -> bool:
        return not self.tally.failures


def run_job(name: str, fn, tracer=None) -> JobOutcome:
    """Run one job; an exception is recorded as a failure, never raised."""
    tally = Tally()
    span = tracer.span(f"bench.{name}", job=True) if tracer is not None else nullcontext()
    t0 = perf_counter()
    with span:
        try:
            fn(tally)
        except Exception as exc:  # a failed operation must not end the run
            tally.failures.append(f"raised {type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    if tracer is not None:
        for key, value in tally.counters.items():
            tracer.counters[key] += value
    return JobOutcome(name, seconds, tally)


@dataclass
class PassOutcome:
    seconds: float
    jobs: list[JobOutcome]


def run_pass(jobs, tracer=None) -> PassOutcome:
    span = tracer.span("bench.pass") if tracer is not None else nullcontext()
    t0 = perf_counter()
    with span:
        outcomes = [run_job(name, fn, tracer) for name, fn in jobs]
    return PassOutcome(perf_counter() - t0, outcomes)


def end_to_end(passes: list[PassOutcome]) -> dict[str, float]:
    """Reduce untraced passes to the end-to-end timing metrics."""
    latencies = [1e3 * job.seconds for p in passes for job in p.jobs]
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    rates = []
    for p in passes:
        work_s = sum(job.tally.work_s for job in p.jobs)
        rates.append(sum(job.tally.work for job in p.jobs) / work_s if work_s else 0.0)
    return {
        "wall_s": statistics.median(p.seconds for p in passes),
        "work_per_s": statistics.median(rates),
        "ess_per_s": statistics.median(
            sum(job.tally.ess for job in p.jobs) / p.seconds for p in passes
        ),
        "request_ms_p50": percentiles[49],
        "request_ms_p95": percentiles[94],
    }


def failures(passes: list[PassOutcome]) -> tuple[int, int, list[str]]:
    """(attempted, failed, distinct failure messages) over all passes."""
    attempted = failed = 0
    messages: list[str] = []
    for p in passes:
        for job in p.jobs:
            attempted += 1
            if not job.ok:
                failed += 1
                for msg in job.tally.failures:
                    line = f"{job.name}: {msg}"
                    if line not in messages:
                        messages.append(line)
    return attempted, failed, messages
