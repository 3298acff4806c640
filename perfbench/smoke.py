"""Smoke test of the benchmark at sf0.001: every workload, traced and
untraced. Each run must exit 0, pass its correctness checks and emit exactly
the metric names BENCHMARK.json lists for its mode.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    bad = 0
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                "--seed", "7", "--seconds", "2", "--trace", str(trace), "--scale", "smoke",
            ]
            p = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=300)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            problems = []
            if p.returncode != 0:
                problems.append(f"exit {p.returncode}")
            if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"correct={res.get('correct')} failed={res.get('failed')}")
            got = set(res.get("metrics", {}))
            if got != names[trace]:
                problems.append(
                    f"missing {sorted(names[trace] - got)} extra {sorted(got - names[trace])}"
                )
            print(f"{w:10s} trace={trace}: {'; '.join(problems) or 'ok'}", flush=True)
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
