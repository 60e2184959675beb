"""sparsetok benchmark: one command for the three workloads.

    python3 perfbench/run.py --workload sparsity_sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout. Each workload runs in its own
fresh process with BLAS/OpenMP pinned to one thread, STKN_THREADS=1 and
STKN_TIMING unset, importing sparsetok from ./src. The last line of standard
output is the result object; the line before it ("details ...") carries the
digests, git SHA, machine info and the reference-loop time. `--workload all`
runs the three workloads one after the other.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("sparsity_sweep", "train_multimodal_ratio", "verify")
CHILD_TIMEOUT_S = 170
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = "1"
    env["STKN_THREADS"] = "1"
    env.pop("STKN_TIMING", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    return env


def run_one(name: str, seed: int, seconds: float, trace: int, root: str) -> int:
    cmd = [sys.executable, os.path.join(HERE, "harness.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", root]
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: workload {name} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        print(f"error: workload {name} printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sparsetok benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sparsetok", "__init__.py")):
        print("error: run from the root of a sparsetok source checkout "
              "(src/sparsetok not found)", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = run_one(name, args.seed, seconds, args.trace, root) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
