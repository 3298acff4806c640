"""Benchmark entry point.

    python3 perfbench/run.py --workload {maintain,churn,medallion} \
        --seed N --seconds S --trace {0,1} [--scale {default,smoke}]

Runs one benchmark in a child process (``driver.py``) with the engine on its
import path, under a hard time limit, and prints the child's result as the
last line of standard output. Before and after the child it stops every
process left from a run in this checkout, orphans of a killed run included,
and waits until each has ended. A child that crashes or overruns the limit
is reported as a failed run with a result line and exit code 1. In a
checkout without the engine package it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
ENGINE = "e2e_ocsf_cyber_lakehouse_blueprint_ray"
#: the child must finish inside the driver's 180 s per-run limit, with
#: room left for clean-up
TIME_LIMIT_S = 165

sys.path.insert(0, HERE)
import procs  # noqa: E402


def failed_result(reason: str) -> int:
    print(reason, file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("maintain", "churn", "medallion"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("default", "smoke"), default="default")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(CHECKOUT, ENGINE, "__init__.py")):
        print(f"{ENGINE}/ not found beside perfbench/: nothing to measure", file=sys.stderr)
        return 2

    procs.kill_all(procs.marked(CHECKOUT))
    state = os.path.join(CHECKOUT, ".perfbench")
    os.makedirs(state, exist_ok=True)
    env = dict(os.environ)
    # Ray workers import the engine, so it must be on their import path too
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (CHECKOUT, env.get("PYTHONPATH")) if p
    )
    env[procs.MARKER] = CHECKOUT
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "driver.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--checkout", CHECKOUT,
    ]
    log_path = os.path.join(state, f"{args.workload}.log")
    with open(log_path, "w") as log:
        child = subprocess.Popen(
            cmd, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, stderr=log,
            text=True, start_new_session=True,
        )
        try:
            out, _ = child.communicate(timeout=TIME_LIMIT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            out, timed_out = "", True
        finally:
            procs.kill_all([child.pid] + procs.marked(CHECKOUT))
            child.wait()
    if timed_out:
        return failed_result(f"run exceeded {TIME_LIMIT_S} s; log: {log_path}")
    # Ray may print worker warnings on the child's stdout: keep JSON lines
    lines = [ln for ln in out.splitlines() if ln.startswith("{")]
    if child.returncode != 0 or not lines or '"metrics"' not in lines[-1]:
        return failed_result(f"run crashed (exit {child.returncode}); log: {log_path}")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
