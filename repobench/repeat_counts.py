"""Exact-count repeat check: two traced runs of one seed, compared.

    python3 repobench/repeat_counts.py --workload NAME [--seed 1]
        [--seconds S] [--json OUT]

Runs ``run.py --trace 1`` twice with the same seed and sorts every
per-layer metric into

* ``exact``: equal bitwise in both runs (a count a later change may
  cite as a count, when it is listed in ledger.EXACT_COUNTS);
* ``timing``: differs between the runs (a time, or a count that
  depends on timing, such as batch sizes under load);
* ``unexercised``: 0 in both runs (a layer the workload does not use).

Exit code 1 when a count of ledger.EXACT_COUNTS did not repeat.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import steady
from ledger import EXACT_COUNTS


def main(argv=None) -> int:
    spec = json.loads((steady.ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--json", default=None,
                   help="also write both runs' result lines here")
    args = p.parse_args(argv)

    a, b = (steady.run_once(args.workload, args.seed, args.seconds, 1)
            for _ in range(2))
    if args.json:
        Path(args.json).write_text(json.dumps([a, b], indent=1))
    exact, timing, unexercised = [], [], []
    for name, m in a["metrics"].items():
        va, vb = m["value"], b["metrics"][name]["value"]
        if va == vb == 0:
            unexercised.append(name)
        else:
            (exact if va == vb else timing).append(name)
    print(f"{args.workload}, seed {args.seed}: two traced runs")
    print("exact:       " + ", ".join(exact))
    print("timing:      " + ", ".join(timing))
    print("unexercised: " + ", ".join(unexercised))
    broken = [n for n in EXACT_COUNTS if n in timing]
    for name in EXACT_COUNTS:
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        mark = "ok" if va == vb else "DIFFERS"
        print(f"  {name:<28} {va:>16.0f} {vb:>16.0f}  {mark}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
