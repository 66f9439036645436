"""Benchmark of the ``penning-chain`` CLI pipeline.

    python3 bench/run.py --workload sweep_cold --seed 0 --trace 0
    python3 bench/run.py --seed 0          # all four workloads, one after another

Run from the repository root.  Each workload runs in its own process
(``workload.py``) with BLAS/OpenMP threads pinned to 1 and a fixed
``PYTHONHASHSEED``; workloads never overlap.  Every workload measures for
``run_seconds`` of ``BENCHMARK.json``; ``--seconds``, if given, must equal
it.  Set-up is timed from spawn to the child's ``READY`` line, for the
measuring process and for the set-up-only processes it times between passes
through its pool, and reported as the median.  The last line of standard
output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json``.  A run record with the environment, machine
probe and every figure goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep_cold", "sweep_hot", "chain_transfer", "oracle_validate")
# Extra wall time a child may take beyond its timed seconds (set-ups, warm-up, checks).
CHILD_SLACK_S = 100.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, str]:
    """Run one workload process; return (spawn-to-READY seconds, last stdout line)."""
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process timed out after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"workload process exited {proc.returncode}: {' '.join(args)}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    setup_s, last = spawn(["--workload", name, "--seed", str(seed), "--out-dir", str(OUT_DIR),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          seconds + CHILD_SLACK_S)
    report = json.loads(last)
    report["setup_samples_s"] = [setup_s, *report["setup_samples_s"]]
    report["setup_s"] = statistics.median(report["setup_samples_s"])
    report["failed_frac"] = report["failed"] / report["attempted"]
    return report


def select_metrics(report: dict, spec: list[dict], trace: int) -> dict:
    """The metrics ``BENCHMARK.json`` names, with their units, from a report."""
    source = report["layers"] if trace else report
    metrics = {}
    for metric in spec:
        name = metric["name"]
        if trace:
            value = source.get(name, 0.0)  # an untouched layer did no work
        elif name in source:
            value = source[name]
        else:
            raise BenchError(f"the workload report has no end-to-end metric {name!r}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def describe(report: dict, metrics: dict, trace: int) -> str:
    lines = [
        f"{report['workload']} seed {report['seed']}: {report['job_size']}; closed loop, "
        f"1 client, {report['warmup_jobs']} warm-up jobs, {report['attempted']} timed jobs",
        f"  env: {report['env']['nproc']} cpus, {report['env']['cpu_model']}, python "
        f"{report['env']['python']}, numpy {report['env']['numpy']}, scipy {report['env']['scipy']}, "
        f"{report['env']['blas']}, {report['env']['process_threads']} thread(s)",
        f"  machine probe: {report['probe_s']['before']:.4f} s before, "
        f"{report['probe_s']['after']:.4f} s after (diagnostic, no bound)",
        f"  setup_s: median of {len(report['setup_samples_s'])} set-ups, "
        f"{min(report['setup_samples_s']):.4f}-{max(report['setup_samples_s']):.4f} s",
    ]
    lines.extend(f"  {name:52s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    # printed on every run; not bounded in BENCHMARK.json (see bench/README.md)
    lines.append(f"  {'job_p50_s':52s} {report['job_p50_s']:.6g} s (median of {report['job_p50_n']} jobs)")
    lines.append(f"  {'failed_frac':52s} {report['failed_frac']:.6g} "
                 f"({report['failed']}/{report['attempted']})")
    if trace:
        lines.append(f"  absent traced names: {', '.join(report['absent']) or 'none'}")
    lines.extend(f"  problem: {p}" for p in report["problems"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload; must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "penning_chain" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: no penning_chain sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    seconds = float(spec["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {seconds:g}, "
              "the window the bounds were set for", file=sys.stderr)
        return 2
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            report = run_workload(name, args.seed, seconds, args.trace)
            metrics = select_metrics(report, metric_spec, args.trace)
            record = OUT_DIR / f"run-{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps({**report, "metrics": metrics}, indent=1))
            print(describe(report, metrics, args.trace), flush=True)
            results[name] = (report, metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reports = [r for r, _ in results.values()]
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{name}.{key}": value for name, (_, m) in results.items() for key, value in m.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
