"""One benchmark workload in one single-threaded process.

Started by ``run.py``.  Set-up is the time from a process's spawn until it
prints ``READY``: by then the package is imported and the seeded inputs are
written.  With ``--setup-only`` the process stops there.  Otherwise it runs
warm-up jobs, then closed-loop timed jobs (one client: each job starts when
the previous one ends) calling ``penning_chain.cli.main`` in-process, then
checks every job's output outside the timed window.  After each pass
through the pool the clock stops while a ``--setup-only`` process is timed,
so that set-up is sampled all through the run.  The last line of standard
output is a JSON report.

With ``--trace 1`` every other pass through the pool runs with span wrappers
installed, and the report carries the per-layer figures of the traced jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP_JOBS = 2


@dataclass
class Timed:
    """One timed job: pool index, duration, output key and traced flag."""

    index: int
    seconds: float
    key: tuple[int, str]
    traced: bool


def import_package():
    """Import ``penning_chain`` from this checkout's ``src``, never another copy."""
    sys.path.insert(0, str(SRC))
    import penning_chain.cli

    if Path(penning_chain.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"penning_chain was imported from {penning_chain.__file__}, not {SRC}")
    return penning_chain.cli


def run_job(cli, job, job_module):
    """Run a job's CLI calls in order, stopping at the first failure."""
    calls = []
    for argv in job.argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            calls.append(job_module.Call(rc, out.getvalue(), err.getvalue().strip()[-500:]))
        except Exception:  # the job boundary: record the failure, keep running
            calls.append(job_module.Call(None, out.getvalue(), traceback.format_exc(limit=3)))
        if calls[-1].rc != 0:
            break
    return calls


def output_key(index: int, calls) -> tuple[int, str]:
    digest = hashlib.sha256(repr([(c.rc, c.stdout, c.error) for c in calls]).encode()).hexdigest()
    return index, digest


def run_one(cli, job, job_module, outputs, traced: bool) -> Timed:
    """Run and time one job; keep its output the first time it is seen."""
    t0 = time.perf_counter()
    calls = run_job(cli, job, job_module)
    seconds = time.perf_counter() - t0
    key = output_key(job.index, calls)
    outputs.setdefault(key, calls)
    return Timed(job.index, seconds, key, traced)


def time_setup(args) -> float:
    """Spawn a ``--setup-only`` process like this one; seconds until READY."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--out-dir", str(args.out_dir), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready = proc.stdout.readline().strip() == "READY"
    seconds = time.perf_counter() - t0
    proc.communicate(timeout=60)
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return seconds


def run_phase(cli, pool, job_module, seconds, first, timed, outputs, between_passes,
              tracer=None) -> float:
    """Closed loop until ``seconds`` of job time have passed; returns them.

    ``between_passes`` runs after each pass through the pool, off the clock.
    With a tracer, passes alternate between untraced and traced, so that
    both kinds of job see the same drift of the host.
    """
    begin = time.perf_counter()
    paused = 0.0
    i = first
    while True:
        traced = tracer is not None and (i // len(pool)) % 2 == 1
        if traced:
            tracer.job = len(timed)
            tracer.install()
        try:
            timed.append(run_one(cli, pool[i % len(pool)], job_module, outputs, traced))
        finally:
            if traced:
                tracer.uninstall()
        i += 1
        elapsed = time.perf_counter() - begin - paused
        if elapsed >= seconds:
            return elapsed
        if i % len(pool) == 0:
            t0 = time.perf_counter()
            between_passes()
            paused += time.perf_counter() - t0


def judge(workload, pool, outputs, seed, reference) -> dict:
    """Check each distinct output once: output key -> list of problems."""
    by_index = {job.index: job for job in pool}
    return {key: workload.check(by_index[key[0]], calls, seed, reference)
            for key, calls in outputs.items()}


def tally(timed: list[Timed], verdicts: dict) -> tuple[list[Timed], list[Timed]]:
    """Split jobs into passed and failed by the verdict on their output."""
    return ([t for t in timed if not verdicts[t.key]], [t for t in timed if verdicts[t.key]])


def machine_probe() -> float:
    """Median time of a fixed pure-Python plus small-matmul task (diagnostic only)."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k * k
        for _ in range(20):
            a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        openblas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = None
    with contextlib.suppress(OSError, ValueError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": openblas,
        "process_threads": threads,
        "pinned_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="timed seconds (not needed with --setup-only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_package()
    import jobs

    workload = jobs.WORKLOADS[args.workload]
    pool = workload.make_pool(args.seed, args.out_dir / "inputs" / f"{args.workload}-{args.seed}")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    env = environment()
    probe_before = machine_probe()
    outputs: dict = {}
    warm = [run_one(cli, pool[i % len(pool)], jobs, outputs, False) for i in range(WARMUP_JOBS)]

    timed: list[Timed] = []
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.calibrate()
    setups: list[float] = []

    def between_passes():
        setups.append(time_setup(args))
        if tracer is not None:
            tracer.calibrate()

    timed_s = run_phase(cli, pool, jobs, args.seconds, WARMUP_JOBS, timed, outputs,
                        between_passes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = machine_probe()

    reference = jobs.load_reference() if args.seed == jobs.DEFAULT_SEED else None
    verdicts = judge(workload, pool, outputs, args.seed, reference)
    passed, failed = tally(timed, verdicts)
    warm_failed = tally(warm, verdicts)[1]

    def busy_rate(traced: bool) -> float:
        """Passed jobs per second of job time, for the traced or untraced jobs."""
        busy = sum(t.seconds for t in timed if t.traced == traced)
        return sum(t.traced == traced for t in passed) / busy if busy else 0.0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "job_size": workload.job_size,
        "warmup_jobs": len(warm),
        "attempted": len(timed),
        "failed": len(failed),
        "correct": not failed and not warm_failed,
        "problems": sorted({p for t in failed + warm_failed for p in verdicts[t.key][:3]})[:10],
        "timed_seconds": timed_s,
        "setup_samples_s": setups,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": {"before": probe_before, "after": probe_after},
        "env": env,
    }
    times = [t.seconds for t in (passed or timed)]
    report["job_p50_s"] = statistics.median(times)
    report["job_p50_n"] = len(times)
    report["job_seconds"] = [round(t.seconds, 6) for t in timed]
    report["jobs_per_s"] = len(passed) / timed_s
    if tracer is not None:
        traced = [t for t in timed if t.traced]
        untraced_job_s = statistics.mean(t.seconds for t in timed if not t.traced)
        layers = tracer.per_job(len(traced), untraced_job_s)
        # job time that neither the untraced jobs nor the calibrated tracing
        # cost account for: host drift and tracing cost the calibration misses
        layers["trace.unexplained_frac"] = (
            statistics.mean(t.seconds for t in traced) - layers["trace.cost_s"]) / untraced_job_s - 1.0
        per_output = {key: workload.output_counts(outputs[key]) for key in {t.key for t in traced}}
        counts: dict[str, float] = {}
        for t in traced:
            for name, value in per_output[t.key].items():
                counts[name] = counts.get(name, 0.0) + value
        layers.update({name: value / len(traced) for name, value in counts.items()})
        reports = layers.get("fidelity_model.total_fidelity.calls", 0.0)
        layers["fidelity_model.out_of_range"] = (
            layers.get("fidelity_model.out_of_range_reports", 0.0) / reports if reports else 0.0)
        checks = layers.get("microscopic_oracle.checks", 0.0)
        layers["microscopic_oracle.checks_passed_frac"] = (
            layers.get("microscopic_oracle.checks_passed", 0.0) / checks if checks else 0.0)
        untraced_rate, traced_rate = busy_rate(False), busy_rate(True)
        layers["trace.untraced_jobs_per_s"] = untraced_rate
        layers["trace.traced_jobs_per_s"] = traced_rate
        layers["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
        report["layers"] = layers
        report["absent"] = tracer.absent
        report["observer_errors"] = tracer.observer_errors[:5]
        spans_path = args.out_dir / f"spans-{args.workload}.npz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
