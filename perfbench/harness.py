"""Run one workload in this process and print its result as the last line.

Started by run.py in a fresh process with BLAS/OpenMP pinned to one thread,
STKN_THREADS=1 and STKN_TIMING unset. The flow is: time the package import
in a few fresh interpreters and repeat the workload's set-up, run whole
rounds until the run length is used up, then time the import and the set-up
as often again. Set-up is short and the host's speed drifts, so sampling it
at both ends of the run steadies its median. With --trace 1 the first half
of the rounds runs under the tracer and the second half repeats the same
number of rounds untraced, so the tracing overhead is measured in-run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

_clock = time.perf_counter

SETUP_REPEATS = 2  # set-ups timed before the rounds, and again after them
IMPORT_PROBES = 3  # import probes before the rounds, and again after them
MIN_TRACED_STEPS = 100  # enough training steps for a p90 step time
_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import sparsetok; "
                 "print(time.perf_counter() - t0)")


def import_seconds(root: str, n: int) -> list[float]:
    """Seconds to import sparsetok (numpy included) in n fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                             text=True, timeout=60, check=True, env=env)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy loop that never touches sparsetok."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    times = []
    for _ in range(repeats):
        t0 = _clock()
        acc = 0.0
        for _ in range(500):
            acc += float((a @ a).sum())
        times.append((_clock() - t0) * 1e3)
    return statistics.median(times)


def git_sha(root: str) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(root, ".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy as np

    return {"cpu": cpu, "cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, probe, start_index: int, keep_going) -> list:
    rounds = []
    while not rounds or keep_going(rounds):
        rounds.append(workload.round(start_index + len(rounds), probe.take_runs))
    return rounds


def execute(name: str, seed: int, seconds: float, trace: bool, root: str,
            workload_args: dict | None = None, import_probes: int = IMPORT_PROBES,
            setup_repeats: int = SETUP_REPEATS,
            min_traced_steps: int = MIN_TRACED_STEPS) -> dict:
    """Run one workload in-process; returns the result object and run details."""
    # imported here: sparsetok is importable only once __main__ has put src on the path
    from instruments import Probe, Tracer
    from layers import per_layer_metrics
    from workloads import WORKLOADS

    # relative, because metrics.csv records the dataset path and its digest
    # should not depend on where the checkout lives
    workdir = os.path.relpath(os.path.join(root, ".perfbench", f"{name}-seed{seed}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    import_times = import_seconds(root, import_probes)
    ref_before = reference_loop_ms()

    probe = Probe().install()
    tracer = Tracer().install() if trace else None
    probe.tracer = tracer
    try:
        workload = WORKLOADS[name](seed, workdir, **(workload_args or {}))

        def time_setups(first_rep: int) -> list[float]:
            times = []
            for rep in range(first_rep, first_rep + setup_repeats):
                t0 = _clock()
                workload.setup(rep)
                times.append(_clock() - t0)
            return times

        setup_times = time_setups(0)
        probe.take_runs()
        counts_after_setup = dict(tracer.counts) if tracer else {}

        t_start = _clock()
        if trace:
            def keep_tracing(rounds):
                steps = sum(len(run.step_s) for r in rounds for run in r.runs)
                return _clock() - t_start < seconds / 2 or 0 < steps < min_traced_steps
            traced = run_rounds(workload, probe, 0, keep_tracing)
            tracer.uninstall()
            probe.tracer = None
            untraced = run_rounds(workload, probe, len(traced),
                                  lambda rounds: len(rounds) < len(traced))
            rounds = traced + untraced
        else:
            rounds = run_rounds(workload, probe, 0,
                                lambda rounds: _clock() - t_start < seconds)
            rss_mb = peak_rss_mb()  # before the later set-ups add to the heap
            setup_times += time_setups(setup_repeats)
            import_times += import_seconds(root, import_probes)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    first = rounds[0].digests
    for i, r in enumerate(rounds[1:], start=1):
        if r.digests != first:
            problems.append(f"round {i} wrote {r.digests}, round 0 wrote {first}")

    if trace:
        metrics = per_layer_metrics(workload, tracer, traced, untraced, counts_after_setup)
        tracer.write(os.path.join(workdir, "trace.jsonl"))
    else:
        metrics = {
            "setup_s": (_median(import_times) + statistics.median(setup_times), "s"),
            "workload_s": (statistics.median(r.wall_s for r in rounds), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    return {
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "details": {
            "workload": name, "seed": seed, "trace": int(trace), "rounds": len(rounds),
            "digests": first, "problems": problems[:20],
            "import_s": import_times, "setup_reps_s": setup_times,
            "round_wall_s": [r.wall_s for r in rounds],
            "reference_loop_ms": {"before": ref_before, "after": reference_loop_ms()},
            "git_sha": git_sha(root), "machine": machine_info(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    out = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.root)
    print("details " + json.dumps(out["details"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    root = os.path.abspath(sys.argv[sys.argv.index("--root") + 1])
    sys.path.insert(0, os.path.join(root, "src"))
    sys.exit(main())
