"""Workload definitions: seeded instances, the CLI operations run on them, and
the answer each operation must give.

All instances use d = 3 colors and width k = 3. Every solve runs once on the
complete color graph and once on the directed cycle. The benchmark seed
fixes every instance and every solver seed; the program under test only sees
the instance files written here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

D, K = 3, 3
GRAPHS = ("complete", "cycle")
CLI = ("-m", "dkcsp.cli")


@dataclass(frozen=True)
class Size:
    """How much work one round of a workload holds."""

    n: int = 0
    m: int = 0
    instances: int = 0
    block_cap: int = 0
    jobs: int = 1
    reps: int = 0
    trials: int = 0
    max_steps: int = 0


# Why each size: see README.md in this directory.
SIZES = {
    "det-unsat": Size(n=10, m=400, instances=3, block_cap=4096),
    "det-sat": Size(n=18, m=250, instances=2, block_cap=19683, jobs=2),
    "walk-unsat": Size(n=12, m=600, instances=2, reps=1000),
    "markov": Size(trials=100_000, max_steps=10_000),
}

# Small enough for the self-test to run every workload in a few seconds,
# large enough that det-sat still splits into two blocks and uses the pool.
TINY_SIZES = {
    "det-unsat": Size(n=6, m=150, instances=1, block_cap=81),
    "det-sat": Size(n=8, m=25, instances=1, block_cap=81, jobs=2),
    "walk-unsat": Size(n=6, m=150, instances=1, reps=20),
    "markov": Size(trials=2000, max_steps=200),
}


@dataclass(frozen=True)
class Op:
    """One `dkcsp` invocation and what its answer must be.

    kind is "det", "walk" or "markov"; expect is "sat", "unsat", "unknown"
    (the walk on an UNSAT instance) or "markov".
    """

    key: str
    kind: str
    argv: tuple[str, ...]  # interpreter arguments, e.g. ("-m", "dkcsp.cli", "solve", ...)
    expect: str
    exit_code: int
    path: Optional[str] = None
    graph: Optional[str] = None
    size: Size = Size()
    seed: int = 0


def _unsat_instances(fmod, rng: random.Random, size: Size) -> list:
    """Dense random instances, kept only if exhaustive search finds no witness."""
    kept = []
    for _ in range(50 * size.instances):
        f = fmod.generate_random(size.n, D, K, size.m, rng.getrandbits(64))
        if fmod.brute_force_solve(f) is None:
            kept.append(f)
            if len(kept) == size.instances:
                return kept
    raise RuntimeError(f"could not draw {size.instances} UNSAT instances at n={size.n}")


def _planted_instances(fmod, rng: random.Random, size: Size) -> list:
    out = []
    for _ in range(size.instances):
        planted = tuple(rng.randint(1, D) for _ in range(size.n))
        out.append(fmod.generate_random(size.n, D, K, size.m, rng.getrandbits(64), planted))
    return out


def prepare(name: str, seed: int, workdir: str, fmod, sizes: dict = SIZES) -> list[Op]:
    """Write the workload's instance files and return one round of operations."""
    size = sizes[name]
    rng = random.Random(f"{name}:{seed}")
    if name == "markov":
        s = rng.getrandbits(32)
        argv = CLI + ("markov", "--d", str(D), "--k", str(K), "--j", "2", "--seed", str(s),
                      "--trials", str(size.trials), "--max-steps", str(size.max_steps))
        return [Op("markov", "markov", argv, "markov", 0, size=size, seed=s)]
    sat = name == "det-sat"
    formulas = _planted_instances(fmod, rng, size) if sat else _unsat_instances(fmod, rng, size)
    ops = []
    for i, f in enumerate(formulas):
        path = os.path.join(workdir, f"{name}-{seed}-{i}.csp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fmod.serialize_instance(f))
        for graph in GRAPHS:
            key = f"i{i}/{graph}"
            if name == "walk-unsat":
                s = rng.getrandbits(32)
                argv = CLI + ("solve", "--method", "schoening", "--graph", graph, "--reps", str(size.reps),
                              "--seed", str(s), "-v", path)
                ops.append(Op(key, "walk", argv, "unknown", 0, path, graph, size, s))
            else:
                argv = CLI + ("solve", "--method", "det", "--graph", graph, "--block-cap", str(size.block_cap),
                              "--jobs", str(size.jobs), "-v", path)
                ops.append(Op(key, "det", argv, "sat" if sat else "unsat", 10 if sat else 20, path, graph, size))
    return ops
