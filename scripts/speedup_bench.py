#!/usr/bin/env python3
"""Measure the cycle-vs-complete node-count gap of the deterministic solver.

Runs a seeded family of dense random instances through both graphs and
reports searched-node totals next to the analytic base ratio. Dense
instances keep the ball searches busy, so the counts track the worst-case
branching and the skewed-distance advantage is visible at small n.
"""

import argparse

from dkcsp.analysis import base_for_graph
from dkcsp.cli import run_bench
from dkcsp.colorgraph import complete, directed_cycle, profile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--n", type=int, default=9)
    ap.add_argument("--m", type=int, default=350)
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--block-cap", type=int, default=1 << 16)
    args = ap.parse_args()

    rows = run_bench(args.d, args.k, args.n, args.m, args.count, args.seed,
                     block_cap=args.block_cap, reps=10)
    nodes = {"complete": 0, "cycle": 0}
    millis = {"complete": 0.0, "cycle": 0.0}
    outcomes = {"sat": 0, "unsat": 0}
    for row in rows:
        if row.method != "det":
            continue
        nodes[row.graph] += row.nodes
        millis[row.graph] += row.millis
        if row.graph == "cycle":
            outcomes[row.result] += 1

    print(f"family d={args.d} k={args.k} n={args.n} m={args.m} count={args.count} "
          f"({outcomes['sat']} sat / {outcomes['unsat']} unsat)")
    for graph in ("complete", "cycle"):
        print(f"  {graph:>9}: {nodes[graph]:>10} nodes  {millis[graph]:>9.1f} ms")
    if nodes["cycle"]:
        measured = nodes["complete"] / nodes["cycle"]
        det = base_for_graph(profile(complete(args.d)), args.k)
        cyc = base_for_graph(profile(directed_cycle(args.d)), args.k)
        analytic = float(det / cyc) ** args.n
        print(f"  measured node ratio {measured:.3f}; base ratio at n={args.n}: {analytic:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
