#!/usr/bin/env python3
"""Print the per-variable running-time bases for a grid of (d, k).

Shows the randomized-walk base, the deterministic base on the complete
graph, the deterministic base on the directed cycle, and the relative gap
the cycle leaves to the randomized bound.
"""

import argparse

from dkcsp.analysis import base_for_graph, base_schoening
from dkcsp.colorgraph import complete, directed_cycle, profile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-d", type=int, default=6)
    ap.add_argument("--max-k", type=int, default=5)
    args = ap.parse_args()

    header = f"{'(d,k)':>8} {'walk':>10} {'det-complete':>14} {'det-cycle':>12} {'gap %':>8}"
    print(header)
    print("-" * len(header))
    for d in range(2, args.max_d + 1):
        for k in range(2, args.max_k + 1):
            walk = base_schoening(d, k)
            det = base_for_graph(profile(complete(d)), k)
            cyc = base_for_graph(profile(directed_cycle(d)), k)
            gap = 100 * (float(cyc) / float(walk) - 1)
            print(f"({d},{k})".rjust(8), f"{float(walk):>10.6f}",
                  f"{float(det):>14.6f}", f"{float(cyc):>12.6f}", f"{gap:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
