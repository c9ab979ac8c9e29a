"""Ball search and random-walk solvers for (d,k)-CSP formulas.

The deterministic solver covers the assignment space with product-distance
balls (see covercode) and searches each ball by branching over the literals
of the first unsatisfied constraint, re-coloring along graph edges only. The
randomized solver is the classic multi-restart random walk, generalized to
move along graph edges.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .colorgraph import ColorGraph, complete
from .covercode import DEFAULT_BLOCK_CAP, build_code
from .formula import Formula, evaluate

__all__ = [
    "SearchStats",
    "SolveResult",
    "det_solve",
    "graph_searchball",
    "schoening_run",
    "schoening_solve",
    "searchball",
]

RngLike = Union[random.Random, int, None]


@dataclass
class SearchStats:
    nodes_visited: int = 0
    balls_searched: int = 0
    repetitions: int = 0
    steps: int = 0
    max_ball_nodes: int = 0


@dataclass(frozen=True)
class SolveResult:
    """status is "sat", "unsat" (deterministic only) or "unknown" (randomized)."""

    status: str
    assignment: Optional[tuple[int, ...]]
    stats: SearchStats


def _as_rng(rng: RngLike) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


class _WalkState:
    """Per-constraint falsified-literal counts, updated as single colors change.

    A constraint is unsatisfied iff all of its literals are falsified; empty
    constraints are permanently unsatisfied (count 0 == width 0).
    """

    def __init__(self, f: Formula):
        self.constraints = f.constraints
        self.widths = [len(c.literals) for c in f.constraints]
        self.occ: list[list[tuple[int, int]]] = [[] for _ in range(f.n + 1)]
        for ci, con in enumerate(f.constraints):
            for lit in con.literals:
                self.occ[lit.var].append((ci, lit.color))
        self.alpha: list[int] = []
        self.counts: list[int] = []

    def reset(self, alpha: list[int]) -> None:
        self.alpha = alpha
        self.counts = [
            sum(1 for lit in con.literals if alpha[lit.var - 1] == lit.color)
            for con in self.constraints
        ]

    def first_unsat(self) -> Optional[int]:
        for ci, cnt in enumerate(self.counts):
            if cnt == self.widths[ci]:
                return ci
        return None

    def set_color(self, var: int, color: int) -> None:
        old = self.alpha[var - 1]
        if old == color:
            return
        counts = self.counts
        for ci, c in self.occ[var]:
            if c == old:
                counts[ci] -= 1
            elif c == color:
                counts[ci] += 1
        self.alpha[var - 1] = color


def _check_center(f: Formula, g: ColorGraph, center: Sequence[int]) -> None:
    if g.d != f.d:
        raise ValueError(f"graph has {g.d} colors, formula has {f.d}")
    if len(center) != f.n:
        raise ValueError(f"center has length {len(center)}, expected {f.n}")
    for v in center:
        if not 1 <= v <= f.d:
            raise ValueError(f"center color {v} out of range 1..{f.d}")


def _searchball_core(
    state: _WalkState, out: tuple[tuple[int, ...], ...], center: Sequence[int], r: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """Recursive ball search; returns (witness or None, nodes visited)."""
    state.reset(list(center))
    constraints = state.constraints
    alpha = state.alpha
    nodes = 0

    def rec(budget: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        ci = state.first_unsat()
        if ci is None:
            return tuple(alpha)
        if budget == 0:
            return None
        for lit in constraints[ci].literals:
            # the constraint is unsatisfied, so alpha[lit.var - 1] == lit.color
            for c2 in out[lit.color - 1]:
                state.set_color(lit.var, c2)
                found = rec(budget - 1)
                state.set_color(lit.var, lit.color)
                if found is not None:
                    return found
        return None

    return rec(r), nodes


def graph_searchball(
    f: Formula, g: ColorGraph, center: Sequence[int], r: int
) -> tuple[Optional[tuple[int, ...]], SearchStats]:
    """Search the radius-r ball around `center` for a satisfying assignment.

    Branches on the first unsatisfied constraint: for each literal (x != c)
    in constraint order, re-colors x to each out-neighbor of c in sorted
    order and recurses with radius r - 1. Returns the first witness found
    (deterministic order) or None if the ball contains none.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    _check_center(f, g, center)
    witness, nodes = _searchball_core(_WalkState(f), g.out, center, r)
    stats = SearchStats(nodes_visited=nodes, balls_searched=1, max_ball_nodes=nodes)
    return witness, stats


def searchball(
    f: Formula, center: Sequence[int], r: int
) -> tuple[Optional[tuple[int, ...]], SearchStats]:
    """Hamming-ball search: graph_searchball over the complete graph."""
    return graph_searchball(f, complete(f.d), center, r)


def _validate_walk_graph(f: Formula, g: ColorGraph) -> None:
    if g.d != f.d:
        raise ValueError(f"graph has {g.d} colors, formula has {f.d}")
    for c, nbrs in enumerate(g.out, start=1):
        if not nbrs:
            raise ValueError(f"color {c} has no out-neighbor; random walk would get stuck")


def schoening_run(
    f: Formula,
    g: ColorGraph,
    steps: int,
    rng: RngLike,
    stats: Optional[SearchStats] = None,
) -> Optional[tuple[int, ...]]:
    """One random-walk run of at most `steps` re-coloring steps.

    Starts from a uniform random assignment; while some constraint is
    unsatisfied, picks one of its literals uniformly at random and re-colors
    the literal's variable to a uniform out-neighbor of the literal's color.
    With the complete graph this is the classic walk (new color uniform among
    the d-1 others). Returns a satisfying assignment or None.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    _validate_walk_graph(f, g)
    rng = _as_rng(rng)
    alpha = [rng.randint(1, f.d) for _ in range(f.n)]
    state = _WalkState(f)
    state.reset(alpha)
    out = g.out
    for _ in range(steps):
        ci = state.first_unsat()
        if ci is None:
            return tuple(alpha)
        lits = f.constraints[ci].literals
        if not lits:
            return None
        lit = lits[rng.randrange(len(lits))]
        nbrs = out[lit.color - 1]
        state.set_color(lit.var, nbrs[rng.randrange(len(nbrs))])
        if stats is not None:
            stats.steps += 1
    return tuple(alpha) if state.first_unsat() is None else None


def _verify_witness(f: Formula, witness: tuple[int, ...]) -> None:
    ok, bad = evaluate(f, witness)
    if not ok:
        raise RuntimeError(f"internal error: witness fails constraint {bad}")


def _ball_chunk(
    centers: Sequence[tuple[int, ...]], f: Formula, out: tuple[tuple[int, ...], ...], r: int
) -> list[tuple[Optional[tuple[int, ...]], int]]:
    state = _WalkState(f)
    results = []
    for center in centers:
        witness, nodes = _searchball_core(state, out, center, r)
        results.append((witness, nodes))
        if witness is not None:
            break
    return results


def _walk_chunk(
    seeds: Sequence[int], f: Formula, g: ColorGraph, steps: int
) -> list[tuple[Optional[tuple[int, ...]], int]]:
    results = []
    for seed in seeds:
        stats = SearchStats()
        witness = schoening_run(f, g, steps, seed, stats)
        results.append((witness, stats.steps))
        if witness is not None:
            break
    return results


def _chunked(items: Sequence, jobs: int) -> list[Sequence]:
    size = max(1, -(-len(items) // (jobs * 4)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _run_chunks(
    chunk_fn: Callable[..., list], items: Sequence, args: tuple, jobs: int
) -> Iterator:
    """Yield chunk_fn's per-item results over all chunks of `items`, in item order.

    jobs == 1 runs the chunks in process; otherwise all chunks are submitted
    to a pool of `jobs` processes at once and read back in order, so the
    caller sees the same results for every `jobs`. Closing the generator
    (the caller stops at a witness) cancels the chunks that have not started.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    chunks = _chunked(items, jobs)
    if jobs == 1 or len(chunks) == 1:
        for chunk in chunks:
            yield from chunk_fn(chunk, *args)
        return
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        futures = [pool.submit(chunk_fn, chunk, *args) for chunk in chunks]
        for future in futures:
            yield from future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def schoening_solve(
    f: Formula,
    g: ColorGraph,
    repetitions: int,
    steps_multiplier: Optional[int] = None,
    rng: RngLike = None,
    jobs: int = 1,
) -> SolveResult:
    """Repeat schoening_run with independent per-repetition substreams.

    Walk length is steps_multiplier * n, default 3(d-1) (the classic 3n for
    d = 2). Results are reproducible given a seed, independently of `jobs`.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    _validate_walk_graph(f, g)
    c = steps_multiplier if steps_multiplier is not None else 3 * (f.d - 1)
    if c < 0:
        raise ValueError("steps multiplier must be nonnegative")
    steps = c * f.n
    master = _as_rng(rng)
    seeds = [master.getrandbits(64) for _ in range(repetitions)]
    stats = SearchStats()
    with closing(_run_chunks(_walk_chunk, seeds, (f, g, steps), jobs)) as results:
        for witness, used in results:
            stats.repetitions += 1
            stats.steps += used
            if witness is not None:
                _verify_witness(f, witness)
                return SolveResult("sat", witness, stats)
    return SolveResult("unknown", None, stats)


def det_solve(
    f: Formula,
    g: ColorGraph,
    block_cap: int = DEFAULT_BLOCK_CAP,
    jobs: int = 1,
) -> SolveResult:
    """Complete deterministic solver: covering code plus ball search.

    Builds a covering code for the formula's (d, k), then searches each
    codeword's ball in order, stopping at the first witness. Coverage of the
    code makes "unsat" answers complete. Output (including stats) does not
    depend on `jobs`.
    """
    if g.d != f.d:
        raise ValueError(f"graph has {g.d} colors, formula has {f.d}")
    code = build_code(g, f.n, f.k, block_cap)
    stats = SearchStats()
    with closing(_run_chunks(_ball_chunk, code.codewords, (f, g.out, code.radius), jobs)) as results:
        for witness, nodes in results:
            stats.nodes_visited += nodes
            stats.balls_searched += 1
            stats.max_ball_nodes = max(stats.max_ball_nodes, nodes)
            if witness is not None:
                _verify_witness(f, witness)
                return SolveResult("sat", witness, stats)
    return SolveResult("unsat", None, stats)
