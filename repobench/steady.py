"""Steadiness tool: run one workload N times and judge each metric's spread.

    python3 repobench/steady.py --workload NAME --runs 10 [--seed0 1]
        [--seconds S] [--json OUT]

Each run gets its own seed (seed0, seed0 + 1, ...).  For every
end-to-end metric the tool prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median`` against the metric's bound in BENCHMARK.json.
A spread above the bound is flagged ``OVER``; one above a third of the
bound is flagged ``noisy`` (the target for a steady benchmark).
setup_s is judged only by the shift of its median between two sets of
runs, so its spread is shown but never flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spreads(results: list[dict]) -> dict:
    """metric -> (median, q1, q3, spread) over the runs' values."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = (med, q1, q3, (q3 - q1) / med if med else float("inf"))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--json", default=None,
                   help="also write every run's result line here")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")

    results = []
    for k in range(args.runs):
        t0 = time.perf_counter()
        res = run_once(args.workload, args.seed0 + k, args.seconds, 0)
        results.append(res)
        print(f"seed {args.seed0 + k} ({time.perf_counter() - t0:.1f} s): "
              f"attempted {res['attempted']} "
              f"failed {res['failed']} "
              + " ".join(f"{n}={m['value']:.6g}"
                         for n, m in res["metrics"].items()),
              flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = False
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  flag")
    for name, (med, q1, q3, spread) in spreads(results).items():
        bound = bounds.get(name)
        flag = ""
        if name == "setup_s":
            flag = "(median shift only)"
        elif bound is not None and spread > bound:
            flag, over = "OVER", True
        elif bound is not None and spread > bound / 3:
            flag = "noisy"
        print(f"{name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {bound if bound is not None else '-':>6}  "
              f"{flag}")
    failed = sum(r["failed"] for r in results)
    print(f"failed operations: {failed} of "
          f"{sum(r['attempted'] for r in results)}")
    return 1 if over or failed else 0


if __name__ == "__main__":
    sys.exit(main())
