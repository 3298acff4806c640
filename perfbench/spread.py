"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs the benchmark untraced ``--runs`` times per workload, each with the
next seed and BENCHMARK.json's ``run_seconds``, and prints per metric the
median and the quartile spread (Q3 - Q1) / median, with ``statistics.
quantiles(values, n=4)``, beside a third of the metric's bound. The raw
results go to ``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in args.workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            t0 = time.monotonic()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=CHECKOUT, capture_output=True, text=True,
            )
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {"correct": False}
            detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
            wall = time.monotonic() - t0
            results.append(
                {"seed": seed, "exit": p.returncode, "wall_s": wall, "result": res, "detail": detail}
            )
            print(f"{w} seed={seed} exit={p.returncode} wall={wall:.0f}s correct={res.get('correct')} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res.get("metrics", {}).items()),
                  flush=True)
            ok &= p.returncode == 0 and bool(res.get("correct"))
        with open(os.path.join(CHECKOUT, ".perfbench", f"spread-{w}.json"), "w") as f:
            json.dump(results, f, indent=1)
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in results
                    if name in r["result"].get("metrics", {})]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {w:10s} {name:24s} median={med:.5g} spread={spread:.3f} "
                  f"(bound/3={bound / 3:.3f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
