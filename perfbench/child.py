"""Workload process: one workload's op stream in a closed loop, one client.

For each op: build it and write its input file (untimed), call
``rigidity_lab.cli.main(argv)`` in process with stdout and stderr captured
(timed), then check the exit code and output (untimed).  Machine-speed
probes (``probe.py``) run every 50 ms, during ops too, and their time is
left out of the op's; each op's latency is also reported scaled to the
reference speed by the probes during and around it.  The loop runs ops 0
to ``--count - 1``; a run slower than ``MAX_LOOP_S`` stops at the next cycle
boundary so that it still ends in time.  ``run.py`` starts one fresh process
per run and reads the JSON result this writes to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
from pathlib import Path

import checks
import probe
import workloads
from tracer import Tracer

TOP_FUNCTIONS = 3
MAX_LOOP_S = 120.0


def materialize(op: workloads.Op, run_dir: Path) -> list[str]:
    """argv with the op's input written to a file in ``run_dir``."""
    if op.doc is None:
        return op.argv
    path = run_dir / "input.json"
    path.write_text(op.doc, encoding="utf-8")
    return [str(path) if a == workloads.INPUT else a for a in op.argv]


def execute(cli, argv: list[str],
            clock=time.perf_counter_ns) -> tuple[int | None, str, float, str | None]:
    """(exit code, stdout, seconds on ``clock``, escaped exception) of one
    ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            escaped = f"SystemExit({exc.code}) escaped main"
        except Exception as exc:  # the op fails; the loop goes on
            escaped = f"{exc!r} escaped main"
        elapsed = (clock() - start) / 1e9
    return code, out.getvalue(), elapsed, escaped


def op_hash(code: int | None, stdout: str) -> str:
    return hashlib.sha256(f"{code}\0{stdout}".encode()).hexdigest()


def run(args: argparse.Namespace) -> dict:
    import rigidity_lab.cli as cli

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    sampler = probe.Sampler()
    tracer = None
    if args.trace:
        tracer = Tracer(sampler.clock_ns)
        tracer.install()
    cycle = workloads.cycle_length(args.workload, sizes)
    run_dir = Path(args.run_dir)
    latencies: list[float] = []
    spans: list[tuple[int, int]] = []  # each op's real start and end, for the probes
    failures: list[dict] = []
    hashes: list[str] = []
    oracle: list[list] = []
    sampler.start()
    try:
        start = time.perf_counter()
        for i in range(args.count):
            if i % cycle == 0 and time.perf_counter() - start > MAX_LOOP_S:
                break
            op = workloads.build_op(args.workload, args.seed, i, sizes)
            argv = materialize(op, run_dir)
            if tracer is not None:
                tracer.op_id = i
            op_start = time.perf_counter_ns()
            code, stdout, elapsed, escaped = execute(cli, argv, sampler.clock_ns)
            spans.append((op_start, time.perf_counter_ns()))
            latencies.append(elapsed)
            reason = escaped or checks.check(op, code, stdout)
            if reason:
                failures.append({"op": i, "kind": op.kind, "reason": reason})
            hashes.append(op_hash(code, stdout))
            if checks.has_oracle(op) and not reason:
                oracle.append([i, checks.rig_dims(op, stdout)])
        wall = time.perf_counter() - start
    finally:
        sampler.stop()
    result = {
        "latencies_s": latencies,
        "scaled_s": [probe.scale(s, sampler.probe_s(*span)) for s, span in zip(latencies, spans)],
        "probes": len(sampler.stamps),
        "wall_s": wall,
        "failures": failures,
        "hashes": hashes,
        "oracle": oracle,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(len(latencies)),
            "missing": tracer.missing,
            "observer_errors": tracer.observer_errors[:5],
            "op_top": {
                str(op_id): sorted(by_name.items(), key=lambda kv: -kv[1])[:TOP_FUNCTIONS]
                for op_id, by_name in tracer.op_self_ns.items()
            },
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    Path(args.out).write_text(json.dumps(run(args)), encoding="utf-8")


if __name__ == "__main__":
    main()
