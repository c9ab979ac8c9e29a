"""Ball search and random-walk solvers for (d,k)-CSP formulas.

The deterministic solver covers the assignment space with product-distance
balls (see covercode) and searches each ball by branching over the literals
of the first unsatisfied constraint, re-coloring along graph edges only. The
randomized solver is the classic multi-restart random walk, generalized to
move along graph edges. Both find the first unsatisfied constraint with one
shared bitset state (_ConstraintBits).
"""

from __future__ import annotations

import random
from contextlib import closing
from dataclasses import dataclass
from functools import reduce
from operator import and_
from types import SimpleNamespace
from typing import Callable, Iterator, Optional, Sequence, Union

from .colorgraph import ColorGraph
from .covercode import DEFAULT_BLOCK_CAP, build_code
from .formula import Formula, evaluate

__all__ = [
    "SearchStats",
    "SolveResult",
    "det_solve",
    "graph_searchball",
    "schoening_run",
    "schoening_solve",
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


class _ConstraintBits:
    """The constraints a coloring leaves unsatisfied, as one bitset per (variable, color).

    bits[v][c] has bit i set iff coloring x_{v+1} with c leaves constraint i
    unsatisfied as far as that variable goes: every literal of constraint i
    on x_{v+1} is (x_{v+1} != c), vacuously so if there is none. Color 0
    stands for a free variable and clears no constraint. A coloring alpha
    leaves constraint i unsatisfied iff bit i survives the AND of
    bits[v][alpha[v]] over all v, so an empty constraint stays unsatisfied
    and a tautology satisfied with no special case. The state does not hold
    alpha: re-coloring a variable is a store into the caller's list.

    picks[i] is what the walk draws from: (literal count, its bit length,
    ((variable, color) for each literal)), both 0-based.
    """

    def __init__(self, f: Formula):
        self.n, self.d = f.n, f.d
        self.constraints = f.constraints
        self.full = (1 << f.m) - 1
        # cleared[v][c]: the constraints that x_{v+1} = c satisfies, bit-packed
        cleared = [[bytearray((f.m + 7) // 8) for _ in range(f.d + 1)] for _ in range(f.n)]
        for i, con in enumerate(f.constraints):
            byte, bit = i >> 3, 1 << (i & 7)
            for lit in con.literals:
                row = cleared[lit.var - 1]
                for c in range(1, f.d + 1):
                    if c != lit.color:
                        row[c][byte] |= bit
        self.bits = [[self.full ^ int.from_bytes(b, "little") for b in row] for row in cleared]
        lits = [tuple((x.var - 1, x.color - 1) for x in con.literals) for con in f.constraints]
        self.picks = [(len(t), len(t).bit_length(), t) for t in lits]

    def unsat(self, alpha: Sequence[int]) -> int:
        """Bitset of the constraints alpha leaves unsatisfied."""
        return reduce(and_, map(list.__getitem__, self.bits, alpha), self.full)


def _check_graph(f: Formula, g: ColorGraph) -> None:
    if g.d != f.d:
        raise ValueError(f"graph has {g.d} colors, formula has {f.d}")


def _check_center(f: Formula, g: ColorGraph, center: Sequence[int]) -> None:
    _check_graph(f, g)
    if len(center) != f.n:
        raise ValueError(f"center has length {len(center)}, expected {f.n}")
    for v in center:
        if not 1 <= v <= f.d:
            raise ValueError(f"center color {v} out of range 1..{f.d}")


def _searchball_core(
    state: _ConstraintBits, out: tuple[tuple[int, ...], ...], center: Sequence[int], r: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """Recursive ball search; returns (witness or None, nodes visited)."""
    constraints, bits, unsat_of = state.constraints, state.bits, state.unsat
    alpha = list(center)
    nodes = 0

    def rec(budget: int, unsat: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        if not unsat:
            return tuple(alpha)
        if budget == 0:
            return None
        for lit in constraints[(unsat & -unsat).bit_length() - 1].literals:
            # the constraint is unsatisfied, so alpha[lit.var - 1] == lit.color;
            # with the variable freed, `rest` is what the other variables leave
            v = lit.var - 1
            alpha[v] = 0
            rest = unsat_of(alpha)
            row = bits[v]
            for c2 in out[lit.color - 1]:
                alpha[v] = c2
                found = rec(budget - 1, rest & row[c2])
                if found is not None:
                    return found
            alpha[v] = lit.color
        return None

    return rec(r, unsat_of(alpha)), nodes


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
    witness, nodes = _searchball_core(_ConstraintBits(f), g.out, center, r)
    stats = SearchStats(nodes_visited=nodes, balls_searched=1, max_ball_nodes=nodes)
    return witness, stats


def _validate_walk_graph(f: Formula, g: ColorGraph) -> None:
    _check_graph(f, g)
    for c, nbrs in enumerate(g.out, start=1):
        if not nbrs:
            raise ValueError(f"color {c} has no out-neighbor; random walk would get stuck")


def _walk_core(
    state: _ConstraintBits, out: tuple[tuple[int, ...], ...], rng: RngLike, steps: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """One random walk from a fresh random start; returns (witness or None, steps taken).

    A draw below N inlines random.Random.randrange(N): getrandbits(N.bit_length()),
    redrawn until below N, so the getrandbits calls and the walk are randrange's.
    """
    bits, full, picks = state.bits, state.full, state.picks
    rng = _as_rng(rng)
    getrandbits = rng.getrandbits
    moves = [(nbrs, len(nbrs), len(nbrs).bit_length()) for nbrs in out]
    alpha = [rng.randint(1, state.d) for _ in range(state.n)]
    getitem = list.__getitem__
    for taken in range(steps):
        u = reduce(and_, map(getitem, bits, alpha), full)
        if not u:
            return tuple(alpha), taken
        count, width, lits = picks[(u & -u).bit_length() - 1]
        if not count:
            return None, taken
        i = getrandbits(width)
        while i >= count:
            i = getrandbits(width)
        v, c = lits[i]
        nbrs, count, width = moves[c]
        i = getrandbits(width)
        while i >= count:
            i = getrandbits(width)
        alpha[v] = nbrs[i]
    return (None if state.unsat(alpha) else tuple(alpha)), steps


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
    witness, taken = _walk_core(_ConstraintBits(f), g.out, rng, steps)
    if stats is not None:
        stats.steps += taken
    return witness


def _verify_witness(f: Formula, witness: tuple[int, ...]) -> None:
    ok, bad = evaluate(f, witness)
    if not ok:
        raise RuntimeError(f"internal error: witness fails constraint {bad}")


_NEVER = SimpleNamespace(value=0)  # the stop flag of an in-process run: never set
_worker: tuple = ()  # a pool worker's chunk context, built once by _init_worker


def _chunk_context(core: Callable, f: Formula, out: tuple, arg: int, stop=_NEVER) -> tuple:
    """(core, state, out, arg, stop): what _search_chunk needs besides its items."""
    return core, _ConstraintBits(f), out, arg, stop


def _init_worker(*args) -> None:
    global _worker
    _worker = _chunk_context(*args)


def _search_chunk(items: Sequence, context: tuple = ()) -> list[tuple[Optional[tuple[int, ...]], int]]:
    """core(state, out, item, arg) per item, up to the first witness or until stop is set.

    Without a context, the worker's own (set by _init_worker) is used.
    """
    core, state, out, arg, stop = context or _worker
    results = []
    for item in items:
        if stop.value:
            break
        results.append(core(state, out, item, arg))
        if results[-1][0] is not None:
            break
    return results


def _chunked(items: Sequence, jobs: int) -> list[Sequence]:
    size = max(1, -(-len(items) // (jobs * 4)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _run_chunks(items: Sequence, args: tuple, jobs: int) -> Iterator:
    """Yield _search_chunk's per-item results over all chunks of `items`, in item order.

    args = (core, formula, out, arg) becomes one context, built in process when
    jobs == 1, else once in each of up to `jobs` processes that take the chunks
    (sent as items alone) and are read back in order, so the caller sees the same
    results for every `jobs`. Closing the generator (the caller stops at a witness)
    cancels the chunks not started and sets a stop flag checked before each item,
    so running chunks end early; their results are never read.
    """
    chunks = _chunked(items, jobs)
    if jobs == 1 or len(chunks) == 1:
        context = _chunk_context(*args)
        for chunk in chunks:
            yield from _search_chunk(chunk, context)
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import RawValue

    stop = RawValue("b", 0)
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(chunks)), initializer=_init_worker, initargs=(*args, stop)
    )
    try:
        futures = [pool.submit(_search_chunk, chunk) for chunk in chunks]
        for future in futures:
            yield from future.result()
    finally:
        stop.value = 1
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
    _check_jobs(jobs)
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
    with closing(_run_chunks(seeds, (_walk_core, f, g.out, steps), jobs)) as results:
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
    _check_jobs(jobs)
    _check_graph(f, g)
    code = build_code(g, f.n, f.k, block_cap)
    stats = SearchStats()
    args = (_searchball_core, f, g.out, code.radius)
    with closing(_run_chunks(code.codewords, args, jobs)) as results:
        for witness, nodes in results:
            stats.nodes_visited += nodes
            stats.balls_searched += 1
            stats.max_ball_nodes = max(stats.max_ball_nodes, nodes)
            if witness is not None:
                _verify_witness(f, witness)
                return SolveResult("sat", witness, stats)
    return SolveResult("unsat", None, stats)
