"""Benchmark of scalc's command-line operations.

    python3 bench/run.py --workload verify-narrow|whole-space|laws
                         --seed N --seconds S --trace 0|1

Run from the root of a scalc checkout.  The inputs are generated from the
seed (see workloads.py) and every output is checked against the reference
interpreter or the law properties (see reference.py).  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, latency_p50_s, throughput_per_s
and peak_rss_mb.  The three times are scaled to the machine's speed while
they were taken (see calibrate.py): they read in seconds on a machine that
runs calibrate.kernel() in calibrate.REFERENCE_S.  With --trace 1 they are
the per-layer figures of a traced run (see tracer.py).  Result and trace
files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import reference
import tracer
import workloads

OUT_DIR = ".bench_out"
SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 160


def child_env() -> dict:
    """scalc from this checkout's sources, with a fixed hash seed.  No
    bytecode is written, so unless something else left src/scalc/__pycache__
    behind, every import compiles scalc afresh."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def scaled(seconds: float, kernel_s: float) -> float:
    return seconds * calibrate.REFERENCE_S / kernel_s


# Runs in the fresh interpreter: the import, the time it is ready, then the
# kernel's times on the core that did the import.
SETUP_CHILD = """\
import scalc.cli, sys, time
ready = time.monotonic()
sys.path.insert(0, sys.argv[1])
import calibrate
print(ready, *calibrate.probe())
"""


def setup_samples(env: dict) -> list[tuple[float, float]]:
    """(seconds, median kernel time) for a fresh interpreter to start and
    import scalc's CLI, from the moment it is launched to the moment the
    import has returned (CLOCK_MONOTONIC is the same clock in both
    processes).  No timeout: with one, the wait polls the child at up to
    50 ms intervals."""
    samples = []
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, here], env=env, check=True, capture_output=True, text=True
        )
        ready, *kernel = map(float, done.stdout.split())
        samples.append((ready - start, statistics.median(kernel)))
    return samples


def check_ops(args, report: dict, workdir: str) -> tuple[list, list]:
    """Check every operation's output; returns (work per op, failures)."""
    work, failures = [], []
    by_round: dict = {}
    for k, entry in enumerate(report["ops"]):
        rnd = entry["round"]
        if rnd not in by_round:
            by_round[rnd] = (workloads.round_ops(args.workload, args.seed, rnd, None), k)
        ops, first = by_round[rnd]
        op = ops[k - first]
        with open(os.path.join(workdir, f"r{rnd}-{k - first}.out"), encoding="utf-8") as fh:
            out = fh.read()
        rc, done = entry["rc"], op.work
        if op.slot != entry["slot"]:
            reason = f"ran {entry['slot']}, expected {op.slot}"
        elif rc is None:
            reason = "crashed: " + entry["stderr"].strip().splitlines()[-1]
        elif op.spec is not None:
            reason = reference.check_spec_op(op.argv, op.spec, rc, out)
        else:
            reason, done = reference.check_laws_op(op.argv, rc, out, workloads.NEGATIVE_CONTROLS)
        if reason is None and "traced run printed other output" in entry["stderr"]:
            reason = "traced run printed other output"
        work.append(done)
        if reason is not None:
            failures.append(f"round {rnd} {op.slot}: {reason}")
    return work, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "scalc", "cli.py")):
        print("error: run from the root of a scalc checkout (src/scalc/cli.py not found)", file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    workdir = os.path.abspath(os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}"))
    os.makedirs(workdir)
    try:
        env = child_env()
        # Half the set-up samples are taken before the operations and half
        # after, so that they see the machine at two times.
        setup = setup_samples(env) if not args.trace else []
        cmd = [
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
            args.workload,
            str(args.seed),
            str(args.seconds),
            str(args.trace),
            workdir,
        ]
        done = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(workdir, "worker.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if not args.trace:
            setup += setup_samples(env)
        work, failures = check_ops(args, report, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print("FAILED", line, file=sys.stderr)
    seconds = [scaled(entry["seconds"], entry["kernel_s"]) for entry in report["ops"]]
    if args.trace:
        units = dict(tracer.LAYER_METRICS)
        metrics = {
            name: {"value": report["layers"][name], "unit": units[name]} for name, _ in tracer.LAYER_METRICS
        }
        if report["absent"]:
            print("absent from this scalc (reported as 0): " + ", ".join(report["absent"]))
        with open(os.path.join(OUT_DIR, f"trace-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(report["spans"], fh)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled(*sample) for sample in setup), "unit": "s"},
            "latency_p50_s": {"value": statistics.median(seconds), "unit": "s"},
            "throughput_per_s": {"value": sum(work) / sum(seconds), "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not failures,
        "attempted": len(seconds),
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": report["rounds"],
        "setup_samples": setup,
        "ops": [dict(entry, work=w) for entry, w in zip(report["ops"], work)],
        "result": result,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    wall = [entry["seconds"] for entry in report["ops"]]
    print(
        f"{args.workload}: {report['rounds']} rounds, {len(wall)} operations, {sum(wall):.2f} s;"
        f" unscaled latency_p50_s {statistics.median(wall):.4f},"
        f" throughput_per_s {sum(work) / sum(wall):.1f}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
