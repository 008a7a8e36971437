"""End-to-end benchmark of the rigidity-lab CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --replay I   # rerun op I alone
    python3 perfbench/run.py --workload W --seed N --trace 0 --smoke

Run from the repository root; the library is imported from ``src/``.  Every
workload run gets one fresh child process (``child.py``) that drives
``rigidity_lab.cli.main(argv)`` in a closed loop with one client; runs go
one at a time.  An op is one ``main`` call.  A run's op count is fixed from
``--seconds`` at the workload's nominal rate (see ``workloads.py``), so at
this commit a run's loop takes about ``--seconds`` seconds (wide, which runs
at least three whole cycles, about 1.6 times that), and every run of a
workload measures the same number of ops whatever the code's speed.

``--trace 0`` prints the end-to-end metrics:

- ``ops_per_s``: ops completed per second of time spent inside ``main``;
- ``op_ms_p50`` and ``op_ms_tail``: per-op wall latency, the median and the
  highest percentile with at least 10 samples beyond it;
- ``setup_s``: median wall time of fresh interpreters that import
  ``rigidity_lab.cli`` and exit;
- ``peak_rss_mb``: peak resident memory of the workload's child process.

The four times are wall times scaled to a reference machine speed, so that
the shared host's drift cancels: op times by the probes of ``probe.py``,
timed every 50 ms during the loop, and ``setup_s`` by reference interpreter
starts that import only standard-library modules.  The unscaled figures are
printed too.

An op fails on a wrong exit code, a failed output check, an exception
escaping ``main``, a centralizer dimension that differs from the sympy
oracle, or output that differs when the op is rerun in a fresh process.
Failures are reported as ``failed`` of ``attempted``, with ``failed_frac``
printed beside them.  The sha256 digest covers every op's exit code and
stdout, so two runs of one seed can be compared byte for byte.

``--trace 1`` runs half as many ops untraced, then the same ops traced in a
second fresh process, and prints the per-layer metrics of ``tracer.py``,
``trace.overhead_frac`` (traced minus untraced time inside ``main``, over
untraced, both scaled by the probes), and the slowest ops with the command
that replays each.

``--smoke`` runs one cycle of tiny inputs (at least the digest prefix)
through the same code.  Every run
fails unless its metric names and units are exactly those ``BENCHMARK.json``
lists for its mode.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_STARTS = 15
CLI_START = "import rigidity_lab.cli"
# The standard-library modules the library imports, and nothing of the library.
REFERENCE_START = ("import argparse, dataclasses, fractions, functools, hashlib, json, math, "
                   "os, pathlib, random, typing, warnings")
# Median reference start on a 2-vCPU x86-64 VM with Python 3.11; only a scale.
NOMINAL_START_S = 0.07
SLOWEST_OPS = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("RIGIDITY_LAB_CATALOG", None)
    return env


def start_s(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code`` and exits.

    The wait blocks in waitpid; a wait with a timeout would poll and round
    the time up to its 50 ms polling step."""
    begin = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=child_env())
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        exit_code = proc.wait()
    finally:
        watchdog.cancel()
    if exit_code != 0:
        raise BenchError(f"interpreter running {code!r} failed with exit {exit_code}")
    return time.perf_counter() - begin


def measure_setup(starts: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI module, each
    start scaled by the reference starts before and after it; and the
    unscaled median.

    A start is scaled by ``NOMINAL_START_S`` over the mean of its two
    reference starts, so host drift cancels.  The arithmetic probe would not
    do here: on a 2-vCPU x86-64 VM, interpreter starts followed its speed only
    as its 0.7th power, and over 100 starts the spread (quartiles over median)
    was 26% unscaled, 20% scaled by the probe and 9% scaled by reference
    starts.  One unmeasured start of each kind first writes the bytecode
    cache, which an installed CLI also has."""
    start_s(REFERENCE_START)
    start_s(CLI_START)
    times, scaled = [], []
    before = start_s(REFERENCE_START)
    for _ in range(starts):
        elapsed = start_s(CLI_START)
        after = start_s(REFERENCE_START)
        times.append(elapsed)
        scaled.append(elapsed * NOMINAL_START_S * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(times)


def run_child(args: argparse.Namespace, run_dir: Path, count: int, trace: int = 0) -> dict:
    out = run_dir / f"result-{trace}-{count}.json"
    cmd = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
           "--count", str(count), "--trace", str(trace), "--run-dir", str(run_dir),
           "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"workload process failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def sizes(args: argparse.Namespace) -> workloads.Sizes:
    return workloads.SMOKE if args.smoke else workloads.FULL


def planned_ops(args: argparse.Namespace, share: float) -> int:
    """Op count for ``share`` of ``--seconds``; one cycle in smoke mode."""
    if args.smoke:
        return max(workloads.cycle_length(args.workload, workloads.SMOKE),
                   workloads.DIGEST_PREFIX[args.workload])
    return workloads.planned_ops(args.workload, args.seconds * share, workloads.FULL)


def oracle_failures(args: argparse.Namespace, result: dict) -> list[dict]:
    """Compare every printed rig centralizer dimension with the sympy oracle."""
    import checks

    failures = []
    for index, dims in result["oracle"]:
        op = workloads.build_op(args.workload, args.seed, index, sizes(args))
        reason = checks.oracle_mismatch(op, dims)
        if reason:
            failures.append({"op": index, "kind": op.kind, "reason": reason})
    return failures


def replay_failures(reference: list[str], replay: list[str]) -> list[dict]:
    """Ops whose output differs between two fresh processes."""
    return [{"op": i, "kind": "determinism", "reason": "output differs in a fresh process"}
            for i, (a, b) in enumerate(zip(reference, replay)) if a != b]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with at
    least TAIL_BEYOND samples beyond it; with fewer samples, the minimum."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def digest(hashes: list[str]) -> str:
    return hashlib.sha256("".join(hashes).encode()).hexdigest()


def report(failures: list[dict], attempted: int) -> None:
    print(f"failed_frac {len(failures) / attempted:.6g}  ({len(failures)} of {attempted} ops)")
    for f in failures[:10]:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['reason']}")


def end_to_end(args: argparse.Namespace, run_dir: Path) -> tuple[dict, int, int]:
    count = planned_ops(args, 1.0)
    setup_starts = 2 if args.smoke else SETUP_STARTS
    setup_s, setup_raw_s = measure_setup(setup_starts)
    result = run_child(args, run_dir, count)
    prefix = min(workloads.DIGEST_PREFIX[args.workload], len(result["hashes"]))
    replay = run_child(args, run_dir, prefix)
    replayed = replay_failures(result["hashes"], replay["hashes"])
    failures = result["failures"] + oracle_failures(args, result) + replayed
    raw = result["latencies_s"]
    lat = result["scaled_s"]
    busy = sum(lat)
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": (len(lat) / busy, "1/s"),
        "op_ms_p50": (1000 * statistics.median(lat), "ms"),
        "op_ms_tail": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} of {count} planned ops, "
          f"{busy:.3f} s inside main at the reference speed ({sum(raw):.3f} s unscaled, "
          f"{result['probes']} probes), {result['wall_s']:.3f} s loop wall")
    notes = {
        "ops_per_s": f"  (unscaled {len(raw) / sum(raw):.6g})",
        "op_ms_p50": f"  (unscaled {1000 * statistics.median(raw):.6g})",
        "op_ms_tail": f"  (p{tail_pct:.1f}: {beyond} of {len(lat)} samples beyond; "
                      f"unscaled {1000 * tail(raw)[0]:.6g})",
        "setup_s": f"  (median of {setup_starts} interpreter starts; unscaled {setup_raw_s:.6g})",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}{notes.get(name, '')}")
    attempted = len(lat) + prefix
    print(f"digest sha256:{digest(result['hashes'])} over all {len(lat)} ops; ops 0..{prefix - 1} "
          f"rerun in a fresh process: {'DIFFER' if replayed else 'identical'}")
    report(failures, attempted)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, attempted, len(failures)


def per_layer(args: argparse.Namespace, run_dir: Path) -> tuple[dict, int, int]:
    import tracer

    count = planned_ops(args, 0.5)
    plain = run_child(args, run_dir, count)
    ops = len(plain["latencies_s"])
    traced = run_child(args, run_dir, ops, trace=1)
    trace = traced["trace"]
    plain_busy, traced_busy = sum(plain["scaled_s"]), sum(traced["scaled_s"])
    values = dict(trace["metrics"])
    values["trace.overhead_frac"] = (traced_busy - plain_busy) / plain_busy
    replayed = replay_failures(plain["hashes"], traced["hashes"])
    failures = plain["failures"] + traced["failures"] + oracle_failures(args, plain) + replayed
    units = tracer.per_layer_units()
    print(f"workload {args.workload} seed {args.seed}: {ops} ops untraced "
          f"({plain_busy:.3f} s inside main), then traced ({traced_busy:.3f} s); "
          f"outputs {'DIFFER' if replayed else 'identical'}")
    for name in trace["missing"]:
        print(f"warning: {name} not found in the library; reported as 0")
    for err in trace["observer_errors"]:
        print(f"warning: counter not observed: {err}")
    print("per-layer self time, largest first:")
    for span in sorted(tracer.span_names(), key=lambda s: -values[f"{s}.self_s"]):
        print(f"  {span:42s} calls {values[span + '.calls']:>9}  "
              f"self {values[span + '.self_s']:.4f} s")
    for name, unit in tracer.DERIVED:
        print(f"  {name} {values[name]:.6g} {unit}")
    print(f"slowest {SLOWEST_OPS} ops as (workload, seed, op, argv), untraced ms "
          f"[largest self times when traced]:")
    lat = plain["latencies_s"]
    for index in sorted(range(ops), key=lambda i: -lat[i])[:SLOWEST_OPS]:
        op = workloads.build_op(args.workload, args.seed, index, sizes(args))
        top = ", ".join(f"{name} {ns / 1e6:.1f} ms"
                        for name, ns in trace["op_top"].get(str(index), []))
        print(f"  ({args.workload}, {args.seed}, {index}, {op.argv}) {1000 * lat[index]:.1f} ms"
              f" [{top}]\n    replay: python3 perfbench/run.py --workload {args.workload} "
              f"--seed {args.seed} --replay {index}{' --smoke' if args.smoke else ''}")
    attempted = 2 * ops
    report(failures, attempted)
    return ({name: {"value": values[name], "unit": units[name]} for name in units},
            attempted, len(failures))


def replay_op(args: argparse.Namespace, run_dir: Path) -> int:
    """Rerun one op alone in this process and show its input, output and check."""
    sys.path.insert(0, str(SRC))
    import checks
    import child
    import rigidity_lab.cli as cli

    op = workloads.build_op(args.workload, args.seed, args.replay, sizes(args))
    argv = child.materialize(op, run_dir)
    code, stdout, elapsed, escaped = child.execute(cli, argv)
    reason = escaped or checks.check(op, code, stdout)
    if not reason and checks.has_oracle(op):
        reason = checks.oracle_mismatch(op, checks.rig_dims(op, stdout))
    print(f"op ({args.workload}, {args.seed}, {args.replay}) {op.kind}: {op.argv}")
    if op.doc is not None:
        print(f"input: {op.doc}")
    print(f"exit {code} in {1000 * elapsed:.3f} ms; check: {reason or 'ok'}")
    print(stdout, end="")
    return 1 if reason else 0


def declared_units(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the rigidity-lab CLI")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same code path")
    parser.add_argument("--replay", type=int, metavar="OP", help="rerun one op alone")
    args = parser.parse_args()
    sys.dont_write_bytecode = True  # write nothing outside the checkout, e.g. for sympy

    if not (SRC / "rigidity_lab" / "cli.py").is_file():
        print(f"error: no library at {SRC / 'rigidity_lab'}; run from a full checkout",
              file=sys.stderr)
        return 2
    run_dir = BUILD / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.replay is not None:
            return replay_op(args, run_dir)
        key = "per_layer" if args.trace else "end_to_end"
        metrics, attempted, failed = (per_layer if args.trace else end_to_end)(args, run_dir)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared_units(key):
        print(f"error: printed {key} metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
