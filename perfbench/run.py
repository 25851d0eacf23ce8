"""Seeded benchmark of potplan's command line: per-task solves, the
ground-truth oracles and A* search.

    python3 perfbench/run.py [--workload compact|oracle|search|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in its own worker process under a wall-clock limit, as a
closed loop: one caller makes the calls one after another, one whole pass
over the workload's cases and then further rounds until --seconds is up
(default: `run_seconds` in BENCHMARK.json).  Call and set-up times are
reported at a reference host speed, measured by a fixed probe after every
call (see PROBE_REFERENCE_S).  With --trace 0
the last line of stdout is one JSON object with the end-to-end metrics named
in BENCHMARK.json; with --trace 1 it holds the per-layer metrics of a traced
run instead.  Lines before it give the same figures by operation name.  With
--workload all (the default) the workloads run in turn, each ending with its
own JSON line.  The exit code is 0 whenever a result was printed, also when
it reports failed operations or wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("compact", "oracle", "search")

# The probe's time on the reference host (worker.probe).  Times are reported
# as seconds on a host that runs the probe in this time: call times are
# scaled by PROBE_REFERENCE_S over the mean probe time of their run, and each
# set-up time over the probes taken right after it, which takes out how fast
# the shared host happened to be.
PROBE_REFERENCE_S = 0.025

TRIM_SHARE = 0.1        # share of cases left out at each end of a call kind's mean
SETUP_RUNS = 3          # set-ups timed per untraced run; the median counts
SETUP_LIMIT_S = 25.0    # from start until a worker reports its set-up
CALL_LIMIT_S = 60.0     # longest silence from the worker once rounds run
RUN_LIMIT_S = 170.0     # longest a workload may take: every set-up, --seconds
                        # and one stalled call, each at its limit


class WorkerError(RuntimeError):
    pass


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "run_seconds": spec["run_seconds"]}


def read_events(proc, started: float, total_limit: float):
    """Yield the worker's JSON lines until it closes stdout.  Raises
    TimeoutError when a limit passes; the caller then kills the worker."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffer = b""
    last = started
    set_up = False
    try:
        while True:
            now = time.monotonic()
            idle = (CALL_LIMIT_S if set_up else SETUP_LIMIT_S) - (now - last)
            left = min(idle, total_limit - (now - started))
            if left <= 0 or not selector.select(timeout=left):
                raise TimeoutError
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                return
            last = time.monotonic()
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                event = json.loads(line)
                set_up = set_up or event.get("event") == "setup"
                yield event
    finally:
        selector.close()


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("POTPLAN_LP_SOLVER_CMD", None)  # measure the built-in HiGHS backend
    # One thread: the run is a single caller, and idle BLAS threads spinning
    # on a 2-vCPU host only add noise.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def set_up_once(workload: str, seed: int, work: str) -> dict:
    """Set up in a fresh worker process that stops after set-up; returns
    its set-up report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--work", work, "--setup-only"]
    setup = None
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE)
    try:
        for event in read_events(proc, time.monotonic(), SETUP_LIMIT_S):
            if event.get("event") == "setup":
                setup = event
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
        proc.stdout.close()
    if setup is None or proc.returncode != 0:
        raise WorkerError(f"{workload}: set-up failed (exit {proc.returncode})")
    return setup


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a worker process and collect its reports.  An
    untraced run first sets up SETUP_RUNS - 1 times in processes of their
    own, so that set-up is timed SETUP_RUNS times."""
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", work]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")]
    result = {"setup": None, "setups": [], "ops": [], "trace": None, "rounds": 0,
              "stalled": False}
    proc = None
    try:
        if not trace:
            try:
                for _ in range(SETUP_RUNS - 1):
                    result["setups"].append(set_up_once(workload, seed, work))
            except TimeoutError:
                raise WorkerError(f"{workload}: set-up took over {SETUP_LIMIT_S:.0f} s") from None
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE)
        for event in read_events(proc, started, seconds + SETUP_LIMIT_S + CALL_LIMIT_S):
            if "op" in event:
                result["ops"].append(event)
                if event["status"] != "ok":
                    print(f"{workload}: {event['op']} {event['status']}: "
                          f"{event.get('detail', '')}", file=sys.stderr)
            elif event["event"] == "setup":
                result["setup"] = event
                result["setups"].append(event)
            elif event["event"] == "trace":
                result["trace"] = event["metrics"]
            elif event["event"] == "done":
                result["rounds"] = event["rounds"]
    except TimeoutError:
        result["stalled"] = True
        proc.kill()
    except BaseException:
        if proc is not None:
            proc.kill()
        raise
    finally:
        if proc is not None:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux, reported in MiB
    if result["setup"] is None:
        raise WorkerError(f"{workload}: worker ended during set-up "
                          f"(exit {proc.returncode}, stalled {result['stalled']})")
    if result["stalled"] or proc.returncode != 0:
        # The call in flight and the rest of its round count as failed.
        kinds = result["setup"]["kinds"]
        done = len(result["ops"]) % len(kinds)
        detail = "worker stalled" if result["stalled"] else f"worker exited {proc.returncode}"
        for kind in kinds[done:]:
            result["ops"].append({"op": kind, "s": 0.0, "probe_s": None, "status": "failed",
                                  "detail": detail, "traced": False})
        print(f"{workload}: {detail}; the rest of its round counts as failed",
              file=sys.stderr)
    return result


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest TRIM_SHARE of the values.
    Over the cases of a run it keeps a rare task that costs several times
    the others (a pot2 search that expands thousands of states where pot1
    expands a dozen) from moving the whole run's figure."""
    values = sorted(values)
    cut = int(len(values) * TRIM_SHARE)
    return statistics.fmean(values[cut:len(values) - cut])


def describe(values: list[float]) -> str:
    """Mean and median, plus the highest percentile with at least ten
    samples above it once there are forty samples."""
    text = f"mean {statistics.fmean(values):.4f}  median {statistics.median(values):.4f}"
    if len(values) >= 40:
        p = int(100 * (1 - 10 / len(values)))
        text += f"  p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return text + f"  (n={len(values)})"


def report(workload: str, seed: int, trace: int, result: dict, declared: dict) -> dict:
    """The result line.  A metric with nothing to measure (every call of its
    kind failed, or a traced worker stopped before its report) reads null;
    the counts of attempted and failed calls are reported all the same."""
    ops = result["ops"]
    kinds = result["setup"]["kinds"]
    failed = sum(op["status"] == "failed" for op in ops)
    wrong = sum(op["status"] == "wrong" for op in ops)
    print(f"# {workload} seed {seed}: {len(ops)} calls, {failed} failed, "
          f"{wrong} with wrong output, {result['rounds']} rounds over "
          f"{result['setup']['cases']} cases")
    metrics = {}
    if trace:
        metrics = result["trace"] or {}
        names = declared["per_layer"]
    else:
        # Seconds at the reference host's speed: a call kind's time over
        # the mean probe time of the same run, times the reference probe
        # time.  A probe follows every call, so the probes cover the same
        # stretch of the host's speed as the calls.
        probes = [op["probe_s"] for op in ops if op["status"] == "ok"]
        scale = PROBE_REFERENCE_S / statistics.fmean(probes) if probes else None
        if probes:
            print(f"{workload}.probe {describe(probes)} s; times are scaled by "
                  f"{scale:.4f} to a {PROBE_REFERENCE_S * 1000:.0f}-ms probe")
        for i, kind in enumerate(kinds):
            by_case: dict[int, list[float]] = {}
            for op in ops:
                if op["op"] == kind and op["status"] == "ok":
                    by_case.setdefault(op["case"], []).append(op["s"])
            if by_case:
                # Every case weighs the same, however often it was timed.
                mean = trimmed_mean([statistics.fmean(v) for v in by_case.values()])
                metrics[f"call{i + 1}_s"] = mean * scale
                values = [s for v in by_case.values() for s in v]
                print(f"{workload}.{kind:<24} measured {describe(values)} s")
        # Each set-up is scaled by the probes taken right after it.
        setups = [event["setup_s"] * PROBE_REFERENCE_S / event["probe_s"]
                  for event in result["setups"]]
        print(f"{workload}.setup measured "
              + " ".join(f"{event['setup_s']:.4f}" for event in result["setups"]) + " s")
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        names = declared["end_to_end"]
    if not set(metrics) <= set(names):
        raise WorkerError(f"{workload}: measured {sorted(set(metrics) - set(names))}, "
                          f"which BENCHMARK.json does not declare")
    for name, unit in names.items():
        value = metrics.get(name)
        print(f"{workload}.{name:<34} {'-' if value is None else format(value, '.6g')} {unit}")
    return {"correct": wrong == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": metrics.get(name), "unit": unit}
                        for name, unit in names.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="time to measure per workload (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = load_declared()
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    longest = RUN_LIMIT_S - SETUP_RUNS * SETUP_LIMIT_S - CALL_LIMIT_S
    if not 1 <= seconds <= longest:
        print(f"error: --seconds must lie in 1..{longest:.0f}, so that a workload "
              f"ends within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        try:
            result = run_worker(workload, args.seed, seconds, args.trace)
            line = report(workload, args.seed, args.trace, result, declared)
        except WorkerError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
