#!/usr/bin/env python3
"""Measure the cycle-vs-complete node-count gap of the deterministic solver.

Runs a seeded family of dense random instances through both graphs and
reports searched-node totals next to the analytic base ratio. Dense
instances keep the ball searches busy, so the counts track the worst-case
branching and the skewed-distance advantage is visible at small n.
"""

import argparse
import random
import time

from dkcsp.analysis import base_for_graph
from dkcsp.colorgraph import complete, directed_cycle, profile
from dkcsp.formula import Formula, generate_random
from dkcsp.search import det_solve


def family(d: int, k: int, n: int, m: int, count: int, seed: int) -> list[Formula]:
    """The seeded instance family; planted (satisfiable) and random instances alternate."""
    master = random.Random(seed)
    instances = []
    for i in range(count):
        inst_seed = master.getrandbits(64)
        planted = None
        if i % 2 == 0:
            planted_rng = random.Random(master.getrandbits(64))
            planted = tuple(planted_rng.randint(1, d) for _ in range(n))
        instances.append(generate_random(n, d, k, m, inst_seed, planted))
        # two draws that feed nothing: the pinned node totals of this family fix
        # the draw order, in which each instance once also seeded one random
        # walk per graph
        master.getrandbits(64)
        master.getrandbits(64)
    return instances


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

    nodes = {"complete": 0, "cycle": 0}
    millis = {"complete": 0.0, "cycle": 0.0}
    outcomes = {"sat": 0, "unsat": 0}
    for f in family(args.d, args.k, args.n, args.m, args.count, args.seed):
        for g in (complete(args.d), directed_cycle(args.d)):
            start = time.perf_counter()
            result = det_solve(f, g, block_cap=args.block_cap)
            millis[g.name] += (time.perf_counter() - start) * 1000
            nodes[g.name] += result.stats.nodes_visited
        outcomes[result.status] += 1  # both graphs give the same answer

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
