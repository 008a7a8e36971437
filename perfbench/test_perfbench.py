"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The smoke runs go through the same code as full runs, on tiny inputs, and
check that every metric BENCHMARK.json names is printed with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import arith
import checks
import child
import probe
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
        assert any(line.startswith("failed_frac 0 ") for line in lines)
        assert any(line.startswith("digest sha256:") for line in lines)
    else:
        assert any("replay: python3 perfbench/run.py" in line for line in lines)


def test_replay_reruns_one_op() -> None:
    proc = bench("--workload", "requests", "--seed", "5", "--replay", "6", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert "nonrealizable" in proc.stdout and "exit 3" in proc.stdout and "check: ok" in proc.stdout


def test_fails_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "requests", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_workload_seed_and_index() -> None:
    for workload in workloads.WORKLOADS:
        a = workloads.build_op(workload, 3, 2, workloads.SMOKE)
        b = workloads.build_op(workload, 3, 2, workloads.SMOKE)
        c = workloads.build_op(workload, 4, 2, workloads.SMOKE)
        assert (a.argv, a.doc) == (b.argv, b.doc)
        assert (a.argv, a.doc) != (c.argv, c.doc)


def test_planned_ops_are_whole_cycles() -> None:
    for workload in workloads.WORKLOADS:
        count = workloads.planned_ops(workload, 20, workloads.FULL)
        assert count % workloads.cycle_length(workload, workloads.FULL) == 0
        assert count >= workloads.DIGEST_PREFIX[workload]


def _run_op(workload: str, index: int) -> tuple[workloads.Op, int | None, str]:
    sys.path.insert(0, str(ROOT / "src"))
    import rigidity_lab.cli as cli

    op = workloads.build_op(workload, 9, index, workloads.SMOKE)
    run_dir = ROOT / ".bench_build" / "test"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        code, stdout, _, escaped = child.execute(cli, child.materialize(op, run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    assert escaped is None
    return op, code, stdout


@pytest.mark.parametrize("workload,index,good,bad", [
    ("campaign", 0, '"all_equal": true', '"all_equal": false'),
    ("levelt", 1, '"rank_hat": 3', '"rank_hat": 4'),
    ("levelt", 2, '"rig_fourier": 2', '"rig_fourier": 0'),
    ("wide", 0, '"irreducible": true', '"irreducible": false'),
    ("requests", 7, '"equal": true', '"equal": false'),
])
def test_checks_reject_a_wrong_output(workload: str, index: int, good: str, bad: str) -> None:
    op, code, stdout = _run_op(workload, index)
    assert checks.check(op, code, stdout) is None
    assert good in stdout
    assert checks.check(op, code, stdout.replace(good, bad)) is not None
    assert checks.check(op, 1, stdout) is not None


def test_oracle_counts_centralizers() -> None:
    one, two = Fraction(1), Fraction(2)
    jordan = [[one, one], [Fraction(0), one]]
    diagonal = [[one, Fraction(0)], [Fraction(0), two]]
    assert checks.oracle_dims([arith.identity(2), jordan, diagonal]) == [4, 2, 2]
    assert checks.oracle_dims([arith.companion([1, 0, 0])]) == [3]


def test_parse_poly() -> None:
    assert checks._parse_poly("x^3 - 3/2*x + 1/2") == {3: 1, 1: Fraction(-3, 2), 0: Fraction(1, 2)}
    assert checks._parse_poly("-x^2 + 2*x") == {2: -1, 1: 2}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond() -> None:
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_sampler_clock_leaves_probes_out() -> None:
    sampler = probe.Sampler()
    sampler.start()
    try:
        wall0, net0, probed0 = time.perf_counter_ns(), sampler.clock_ns(), sampler.total_ns
        while time.perf_counter_ns() - wall0 < 6 * probe.GAP_S * 1e9:
            pass
        net1, wall1, probed1 = sampler.clock_ns(), time.perf_counter_ns(), sampler.total_ns
    finally:
        sampler.stop()
    assert probed1 > probed0
    assert abs((wall1 - wall0) - (net1 - net0) - (probed1 - probed0)) < 1_000_000
    assert sampler.probe_s(wall0, wall1) > 0
    assert probe.scale(3.0, probe.NOMINAL_S / 2) == 6.0
