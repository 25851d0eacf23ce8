"""One workload in one process: set up, run rounds over the cases (at least
one whole pass) for the given time, check every output, and report each
operation to the supervising process.  After every timed call the worker
also times a fixed pure-Python probe (`probe`), which measures how fast the
host runs Python code at that moment; run.py scales the call times by it.

An operation is one in-process `potplan.cli.main([...])` call with its
stdout captured.  Reports are JSON lines on the descriptor that was stdout
when the process started; the program's own prints cannot reach it, because
`sys.stdout` is redirected during each call and descriptor 1 points at stderr.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload compact --seed 1 --seconds 30 \
        --trace 0 --work DIR [--spans FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import heapq
import io
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5  # probes after set-up, to scale its time


class RoundAborted(Exception):
    pass


def probe() -> float:
    """Seconds for a fixed job of integer arithmetic, dict updates on tuple
    keys with a sort, and heap pushes and pops: the kinds of interpreted work
    that make up most of a potplan call.  It uses nothing from potplan, so a
    change to the program cannot move it; only the host's speed does.  The
    garbage collector is off meanwhile: otherwise the probe now and then
    pays for a full collection of the garbage the call before it left."""
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(75_000):
        total += i * i % 7
    counts: dict[tuple[int, int], int] = {}
    for i in range(20_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    heap: list[tuple[int, int]] = []
    for i in range(8_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        heapq.heappop(heap)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Runner:
    """Times, checks and reports calls into the program."""

    def __init__(self, cli, channel, kinds, check_errors):
        self.cli = cli
        self.check_errors = check_errors
        self.channel = channel
        self.kinds = kinds
        self.traced = False
        self.case = 0
        self.in_round = 0
        self.seconds = {False: 0.0, True: 0.0}  # summed call time, by traced

    def emit(self, **event) -> None:
        self.channel.write(json.dumps(event) + "\n")
        self.channel.flush()

    def invoke(self, argv) -> tuple[int | None, str, str, float]:
        # A command-line call normally starts in a fresh process with no
        # garbage; collect what earlier calls left, so that no call pays for
        # collecting another call's objects.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # the program crashed: a failed operation
            code = None
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start

    def setup_call(self, kind, argv, check):
        """An untimed call made while setting up; any failure ends the run."""
        code, out, err, _ = self.invoke(argv)
        if code != 0:
            raise RuntimeError(f"set-up call {' '.join(argv)} exited {code}: {err.strip()}")
        return check(out)

    def call(self, kind, argv, check):
        code, out, err, elapsed = self.invoke(argv)
        probe_s = probe()
        self.in_round += 1
        if code != 0:
            self.emit(op=kind, case=self.case, s=elapsed, probe_s=probe_s, status="failed",
                      traced=self.traced,
                      detail=f"{' '.join(argv)} exited {code}: {err.strip()[-400:]}")
            raise RoundAborted
        try:
            value = check(out)
        except self.check_errors as e:
            self.emit(op=kind, case=self.case, s=elapsed, probe_s=probe_s, status="wrong",
                      traced=self.traced, detail=f"{' '.join(argv)}: {type(e).__name__}: {e}")
            raise RoundAborted from None
        self.seconds[self.traced] += elapsed
        self.emit(op=kind, case=self.case, s=elapsed, probe_s=probe_s, status="ok",
                  traced=self.traced)
        return value

    def round(self, workload, cases, index: int, traced: bool) -> None:
        """One round on cases[index]; after an abort the round's remaining
        operations count as attempted and failed, so every round attempts the
        same calls."""
        self.traced, self.case, self.in_round = traced, index, 0
        try:
            workload.run_round(cases[index], self.call)
        except RoundAborted:
            for kind in self.kinds[self.in_round:]:
                self.emit(op=kind, case=index, s=0.0, status="failed", traced=traced,
                          detail="round aborted")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for generated inputs")
    parser.add_argument("--spans", help="file for the traced run's spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (run.py times set-up in several processes)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "potplan", "cli.py")):
        print(f"error: no potplan sources under {SRC}", file=sys.stderr)
        return 2
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import potplan.cli
    import_s = time.perf_counter() - start
    if not os.path.abspath(potplan.__file__).startswith(SRC + os.sep):
        print(f"error: imported potplan from {potplan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, CheckFailed
    workload = WORKLOADS[args.workload]
    # A malformed output shows up as one of these while it is checked.
    runner = Runner(potplan.cli, channel, workload.kinds,
                    (CheckFailed, ValueError, KeyError, TypeError, IndexError))

    t0 = time.perf_counter()
    cases = workload.make_inputs(args.seed, args.work)
    inputs_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    workload.prepare(cases, runner.setup_call)
    prepare_s = time.perf_counter() - t0
    probe_s = statistics.median(probe() for _ in range(SETUP_PROBES))
    runner.emit(event="setup", kinds=list(workload.kinds), cases=len(cases),
                setup_s=import_s + inputs_s + prepare_s, probe_s=probe_s,
                import_s=import_s, inputs_s=inputs_s, prepare_s=prepare_s)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    # One whole pass first, so that every case is timed; then further
    # rounds, case after case, until the time is up.  run.py averages each
    # case's calls before it averages over cases, so the cases that a
    # partial last pass times again do not weigh more.
    rounds = 0
    start = time.perf_counter()
    while rounds < len(cases) or time.perf_counter() - start < args.seconds:
        index = rounds % len(cases)
        runner.round(workload, cases, index, traced=False)
        if tracer is not None:
            tracer.install()
            try:
                runner.round(workload, cases, index, traced=True)
            finally:
                tracer.uninstall()
        rounds += 1

    if tracer is not None:
        metrics = tracer.metrics(tracer.call_id, runner.seconds[False], runner.seconds[True])
        if args.spans:
            tracer.write_spans(args.spans)
        runner.emit(event="trace", metrics=metrics)
    runner.emit(event="done", rounds=rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
