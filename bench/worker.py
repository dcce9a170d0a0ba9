"""Runs one workload's operations through scalc's command-line entry point.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

`run.py` starts this in a fresh interpreter with scalc's sources on
PYTHONPATH.  One caller, one thread, closed loop: each operation is one
call of `scalc.cli.main` with stdout captured, started when the previous
one has returned, and `calibrate.py` samples the machine's speed during
and between the operations.  Whole rounds run, as many as end closest to
SECONDS at the pace of the round before (a round starts while less than
half a round remains to be filled), and at least one.  Each operation's
output goes to WORKDIR/r<round>-<k>.out for `run.py` to check, and
WORKDIR/worker.json gets the timings and the process's peak RSS.

With TRACE=1 each round runs three times: untraced, traced (spans around
scalc's functions, see tracer.py) and, for the first of each repeated
operation on the middle rung, with tracemalloc around `denote` (on larger
spaces tracemalloc would make the run too long).  The untraced pass is the
base of the tracing overhead; the traced pass must print the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibrate
import tracer
import workloads


def run_op(main, argv, sampler=None) -> tuple[int | None, str, str, float]:
    """(exit code or None on a crash, stdout, stderr, seconds).  With a
    sampler, the time its handler took is left out of the seconds."""
    out, err = io.StringIO(), io.StringIO()
    timing = sampler or contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with timing, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start - (sampler.spent if sampler else 0.0)
    return rc, out.getvalue(), err.getvalue(), seconds


def main() -> int:
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    from scalc import cli

    start = time.perf_counter()
    ops_log = []
    run = {
        "cli_self_s": 0.0,
        "output_bytes": 0,
        "states_checked": 0,
        "pairs_checked": 0,
        "verify_states_denoted": 0,
        "denote_peak_bytes": 0,
    }
    base = traced = 0.0
    t = tracer.Tracer() if trace else None
    rnd = 0
    probed = calibrate.probe()
    sampler = calibrate.Sampler()
    last = 0.0  # duration of the previous round
    while rnd == 0 or time.perf_counter() - start + last / 2 < seconds:
        round_start = time.perf_counter()
        ops = workloads.round_ops(workload, seed, rnd, workdir)
        for k, op in enumerate(ops):
            rc, out, err, dt = run_op(cli.main, op.argv, sampler)
            # the machine's speed over the operation: the kernel's times just
            # before it, during it and just after it
            before, probed = probed, calibrate.probe()
            samples = before + sampler.samples + probed
            with open(os.path.join(workdir, f"r{rnd}-{k}.out"), "w", encoding="utf-8") as fh:
                fh.write(out)
            ops_log.append(
                {
                    "round": rnd,
                    "slot": op.slot,
                    "rc": rc,
                    "seconds": dt,
                    "kernel_s": statistics.fmean(samples),
                    "stderr": err[-2000:],
                }
            )
            if not trace:
                continue
            # overhead from the two passes' times, each divided by the
            # kernel's mean time in the probes around it (a sampler in the
            # traced pass would add its handler to the spans)
            base += dt / statistics.fmean(before + probed)
            t.op, t.top, t.hook = len(ops_log) - 1, 0.0, 0.0
            denoted_before = t.counts["denote.outer"]
            t.install()
            try:
                rc2, out2, _, dt2 = run_op(cli.main, op.argv)
            finally:
                t.uninstall()
            before, probed = probed, calibrate.probe()
            traced += dt2 / statistics.fmean(before + probed)
            if (rc2, out2) != (rc, out):
                ops_log[-1]["stderr"] += "\ntraced run printed other output"
            run["cli_self_s"] += dt2 - t.top - t.hook
            run["output_bytes"] += len(out.encode())
            if op.argv[0] == "verify":
                with contextlib.suppress(ValueError, KeyError, TypeError):
                    stats = json.loads(out)["stats"]
                    run["states_checked"] += stats["states_checked"]
                    run["pairs_checked"] += stats["pairs_checked"]
                run["verify_states_denoted"] += op.work * (t.counts["denote.outer"] - denoted_before)
            if op.rung == workloads.MIDDLE_RUNG and op.slot.endswith("-0"):
                peak = tracer.DenotePeak()
                if peak.install():
                    try:
                        run_op(cli.main, op.argv)
                    finally:
                        peak.uninstall()
                    run["denote_peak_bytes"] = max(run["denote_peak_bytes"], peak.peak)
                probed = calibrate.probe()
        last = time.perf_counter() - round_start
        rnd += 1

    report = {
        "rounds": rnd,
        "ops": ops_log,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        run["overhead_pct"] = 100.0 * (traced - base) / base
        values, absent = tracer.layer_metrics(t, run)
        report["layers"] = values
        report["absent"] = absent
        report["spans"] = {"dropped": t.dropped, "spans": t.spans}
    with open(os.path.join(workdir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
