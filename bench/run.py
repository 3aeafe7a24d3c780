"""dpdbayes benchmark: one workload, timed end to end or traced by layer.

Usage, from the repository root:

    python3 bench/run.py --workload chains|influence|fits --seed N \
        --seconds S --trace 0|1

The package is imported from ``src/`` next to this directory, never from an
installed copy.  Set-up (import, inputs, models, one warm-up slice) is
repeated three times and reported as ``setup_s``; then passes over the
workload's fixed job list repeat, one caller in one process, until
``--seconds`` is used.  Every job checks its outputs against references
computed without the package; a job that raises or fails a check counts as
failed.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
repeat every metric by name with its unit, and the run environment.  A full
record goes to ``.bench_out/`` in the repository root; traced runs also
write their spans there.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def _since_process_start() -> float:
    """Seconds between process creation and now, from /proc (0 if absent)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_BEFORE_T0 = _since_process_start() - (time.perf_counter() - _T0)

# One caller, one BLAS thread: fixed before numpy loads so runs compare.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
MIN_PASSES = 3
#: Stop starting passes after this long, so a slow machine still exits in time.
HARD_STOP_S = 140.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "work_per_s": "1/s",
    "ess_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p95": "ms",
}

#: Per-layer metrics with their units; every one is reported on every
#: workload, so a layer a workload bypasses reads 0.
PER_LAYER = {
    "models.calls": "count",
    "models.self_s": "s",
    "models.rows_per_call": "rows",
    "models.computed_mb": "MB",
    "models.quad_self_s": "s",
    "alpha_likelihood.calls": "count",
    "alpha_likelihood.self_s": "s",
    "mdpde.fits": "count",
    "mdpde.self_s": "s",
    "mdpde.newton_iters": "count",
    "mdpde.objective_evals": "count",
    "mdpde.step_accept_ratio": "ratio",
    "mdpde.nonconverged": "count",
    "posterior.steps": "count",
    "posterior.self_s": "s",
    "posterior.us_per_step": "us",
    "posterior.us_per_step_n25": "us",
    "posterior.prior_s": "s",
    "posterior.prior_us_per_step_n25": "us",
    "posterior.accept_ratio": "ratio",
    "posterior.is_ess_ratio": "ratio",
    "laplace.calls": "count",
    "laplace.self_s": "s",
    "diagnostics.calls": "count",
    "diagnostics.self_s": "s",
    "robustness.self_s": "s",
    "robustness.t_points": "count",
    "robustness.model_calls_per_point": "count",
    "robustness.scores_ms_per_point": "ms",
    "robustness.is_ess_ratio": "ratio",
    "robustness.is_retries": "count",
    "robustness.optimizer_evals": "count",
    "cli.runs": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
    "trace.spans_per_pass": "count",
}

#: What ``work_per_s`` counts on each workload, printed under this name too.
WORK_NAMES = {"chains": "steps_per_s", "influence": "points_per_s", "fits": "requests_per_s"}


def _fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=["chains", "influence", "fits"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package():
    """Import dpdbayes from this checkout's ``src`` and nowhere else."""
    if not (SRC / "dpdbayes" / "__init__.py").is_file():
        _fail(f"no dpdbayes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpdbayes

    if Path(dpdbayes.__file__).resolve().parent != (SRC / "dpdbayes").resolve():
        _fail(f"dpdbayes imported from {dpdbayes.__file__}, not from {SRC}")
    return dpdbayes


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int:
    """Thread count reported by the loaded OpenBLAS, else the setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    except OSError:
        pass
    return BLAS_THREADS


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
    }


def _repeat(step, seconds: float, min_rounds: int) -> None:
    """Call ``step`` at least ``min_rounds`` times, then until one more call
    would overrun ``seconds``."""
    started = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        step()
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if elapsed > HARD_STOP_S:
            return
        if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > seconds:
            return


def main(argv=None) -> int:
    args = _parse(argv)
    dpdbayes = _import_package()
    import harness
    from spans import LAYERS, Tracer, summarize
    from workloads import WORKLOADS

    import_s = _BEFORE_T0 + (time.perf_counter() - _T0)
    os.environ.pop("DPDBAYES_OUTPUT_DIR", None)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            workload.warmup()
            setups.append(time.perf_counter() - t0)
        workload.references()
        jobs = workload.jobs()
        plain = []
        if not args.trace:
            min_rounds = max(MIN_PASSES, -(-workload.min_jobs // len(jobs)))
            _repeat(lambda: plain.append(harness.run_pass(jobs)), args.seconds, min_rounds)
            metrics = harness.end_to_end(plain)
            metrics["setup_s"] = import_s + statistics.median(setups)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
            passes = plain
        else:
            tracer = Tracer()
            traced = []

            def pair():
                plain.append(harness.run_pass(jobs))
                tracer.install(dpdbayes)
                try:
                    traced.append(harness.run_pass(jobs, tracer))
                finally:
                    tracer.uninstall()

            _repeat(pair, args.seconds, MIN_PASSES)
            metrics = summarize(tracer, len(traced))
            traced_wall = statistics.fmean(p.seconds for p in traced)
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.untraced_wall_s"] = statistics.fmean(p.seconds for p in plain)
            metrics["trace.overhead_s"] = traced_wall - metrics["trace.untraced_wall_s"]
            layer_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
            metrics["trace.remainder_s"] = traced_wall - layer_self
            metrics["trace.spans_per_pass"] = len(tracer.start) / len(traced)
            units = PER_LAYER
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
            passes = plain + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, messages = harness.failures(passes)
    env = _environment(args)
    latencies = sum(len(p.jobs) for p in plain)
    record = {
        "environment": env,
        "passes": len(passes),
        "request_samples": latencies,
        "setup_runs_s": setups,
        "pass_s": [p.seconds for p in plain],
        "failed_ratio": failed / attempted,
        "failures": messages,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# passes={len(passes)} request_samples={latencies} unit={workload.unit!r}")
    for msg in messages:
        print(f"# FAILED {msg}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"failed_ratio {failed / attempted!r} ratio")
    if "work_per_s" in units:
        print(f"{WORK_NAMES[args.workload]} {metrics['work_per_s']!r} 1/s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
