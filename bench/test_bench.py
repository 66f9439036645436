"""Tests of the benchmark's own checks, accounting and tracer.

    python3 -m pytest bench/test_bench.py -q

Run from the repository root.  They are not part of the package's test
suite; each test runs a few small CLI jobs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workload import Timed, import_package, judge, output_key, run_job, tally

cli = import_package()
import jobs  # noqa: E402  (needs the package on sys.path)
import spans  # noqa: E402

SEED = 5  # not the default seed: only the seed-independent cross-checks apply


def _pool(name: str, tmp_path: Path, seed: int = SEED):
    return jobs.WORKLOADS[name].make_pool(seed, tmp_path)


def _corrupt_row(calls, column: str, call: int = 0, row: int = 0, scale: float = 1.0 + 1e-6,
                 shift: float = 0.0):
    """Scale, then shift, one value of a data row of a call."""
    text = calls[call].stdout
    lines = text.splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    fields = lines[header + 1 + row].rstrip("\n").split(",")
    k = lines[header].rstrip("\n").split(",").index(column)
    fields[k] = f"{float(fields[k]) * scale + shift:.12g}"
    lines[header + 1 + row] = ",".join(fields) + "\n"
    calls = list(calls)
    calls[call] = dataclasses.replace(calls[call], stdout="".join(lines))
    return calls


def test_workload_names_agree_with_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS == tuple(jobs.WORKLOADS)


def test_pools_are_seeded(tmp_path):
    a = _pool("sweep_hot", tmp_path / "a")
    b = _pool("sweep_hot", tmp_path / "b")
    c = _pool("sweep_hot", tmp_path / "c", seed=SEED + 1)
    assert [j.params for j in a] == [j.params for j in b] != [j.params for j in c]


@pytest.mark.parametrize("column", ["f_total", "jxy", "omega_c"])
def test_corrupted_sweep_output_counts_as_failed(tmp_path, column):
    workload = jobs.WORKLOADS["sweep_hot"]
    pool = _pool("sweep_hot", tmp_path)
    good = run_job(cli, pool[0], jobs)
    bad = _corrupt_row(good, column)
    outputs = {output_key(0, good): good, output_key(0, bad): bad}
    verdicts = judge(workload, pool, outputs, SEED, None)
    timed = [Timed(0, 0.1, key, False) for key in outputs]
    passed, failed = tally(timed, verdicts)
    assert [t.key for t in passed] == [output_key(0, good)]
    assert [t.key for t in failed] == [output_key(0, bad)]


def test_truncated_sweep_and_nonzero_exit_fail(tmp_path):
    workload = jobs.WORKLOADS["sweep_hot"]
    pool = _pool("sweep_hot", tmp_path)
    good = run_job(cli, pool[1], jobs)
    truncated = [dataclasses.replace(good[0], stdout=good[0].stdout.rsplit("\n", 2)[0] + "\n")]
    assert workload.check(pool[1], truncated, SEED, None)
    assert workload.check(pool[1], [jobs.Call(1, "", "error: boom")], SEED, None)
    assert workload.check(pool[1], [jobs.Call(None, "", "Traceback ...")], SEED, None)


def test_default_seed_compares_against_recorded_values(tmp_path):
    workload = jobs.WORKLOADS["sweep_hot"]
    pool = _pool("sweep_hot", tmp_path, seed=jobs.DEFAULT_SEED)
    good = run_job(cli, pool[0], jobs)
    reference = jobs.load_reference()
    assert workload.check(pool[0], good, jobs.DEFAULT_SEED, reference) == []
    shifted = json.loads(json.dumps(reference))
    shifted["sweep_hot"][0]["e_r.sum"][0] *= 1.0 + 1e-6
    assert workload.check(pool[0], good, jobs.DEFAULT_SEED, shifted)


def test_corrupted_oracle_identity_fails(tmp_path):
    workload = jobs.WORKLOADS["oracle_validate"]
    pool = _pool("oracle_validate", tmp_path)
    good = run_job(cli, pool[0], jobs)
    assert workload.check(pool[0], good, SEED, None) == []
    payload = json.loads(good[0].stdout)
    identity = next(c for c in payload["checks"] if c["name"].startswith("resonant swap"))
    identity["passed"] = False
    bad = [dataclasses.replace(good[0], stdout=json.dumps(payload))]
    assert workload.check(pool[0], bad, SEED, None)


def test_corrupted_transfer_curve_fails(tmp_path):
    workload = jobs.WORKLOADS["chain_transfer"]
    pool = _pool("chain_transfer", tmp_path)
    good = run_job(cli, pool[0], jobs)
    assert workload.check(pool[0], good, SEED, None) == []
    assert workload.check(pool[0], _corrupt_row(good, "fidelity", call=1), SEED, None)
    # mid-curve, by more than the rounding allowance, on either chain
    for call in (0, 1):
        bad = _corrupt_row(good, "fidelity", call=call, row=300, scale=1.0, shift=-0.02)
        assert workload.check(pool[0], bad, SEED, None)


def test_transfer_check_ignores_path_and_rounding(tmp_path):
    """A correct program may take the other path for the small chain and move
    the curves by rounding: neither fails, against the recorded values too."""
    workload = jobs.WORKLOADS["chain_transfer"]
    pool = _pool("chain_transfer", tmp_path, seed=jobs.DEFAULT_SEED)
    reference = jobs.load_reference()
    good = run_job(cli, pool[0], jobs)
    assert "# path: dense" in good[0].stdout
    moved = [dataclasses.replace(good[0], stdout=good[0].stdout.replace("# path: dense", "# path: subspace")),
             good[1]]
    for call in (0, 1):
        for row in range(1, jobs.CURVE_POINTS, 17):
            moved = _corrupt_row(moved, "fidelity", call=call, row=row, scale=1.0, shift=3e-7)
    assert workload.check(pool[0], moved, jobs.DEFAULT_SEED, reference) == []
    shifted = _corrupt_row(good, "fidelity", call=0, row=jobs.CURVE_POINTS - 1, scale=1.0, shift=1e-3)
    assert workload.check(pool[0], shifted, jobs.DEFAULT_SEED, reference)

def test_tracer_self_times_add_up_and_originals_return():
    import penning_chain.couplings as couplings

    original = couplings.pair_coupling_strengths
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["table1"]) in (0, 3)
    finally:
        tracer.uninstall()
    assert couplings.pair_coupling_strengths is original
    assert tracer.absent == [] and tracer.observer_errors == []
    tracer.calibrate()
    assert tracer.cost["span_outside"] > 0.0
    per_job = tracer.per_job(1, 1.0)
    assert per_job["cli.main.calls"] == 1
    # called through the benchmarks module, which imported it by name
    assert per_job["couplings.pair_coupling_strengths.calls"] > 0
    # self times less tracing cost, plus that cost, cover the root span
    total_self = sum(v for k, v in per_job.items() if k.endswith(".self_s"))
    root = tracer._end[0] - tracer._start[0]
    assert 0.0 < per_job["trace.cost_s"] < root
    assert total_self + per_job["trace.cost_s"] == pytest.approx(root, rel=1e-9)


def test_missing_traced_name_is_reported_absent():
    targets = spans.TARGETS + (("spin_chain.gone", "penning_chain.spin_chain", "no_such_function", None),)
    tracer = spans.Tracer(targets)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["spin_chain.gone"]
    assert tracer.per_job(1, 1.0)["trace.absent_names"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    seconds = str(json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "sweep_hot", "--seed", "1",
         "--seconds", seconds, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_another_window(capsys):
    assert run.main(["--workload", "sweep_hot", "--seed", "1", "--seconds", "1"]) == 2
    assert '"metrics"' not in capsys.readouterr().out
