"""Ball search and random-walk solvers for (d,k)-CSP formulas.

The deterministic solver covers the assignment space with product-distance
balls (see covercode) and searches each ball by branching over the literals
of the first unsatisfied constraint, re-coloring along graph edges only. It
takes one path for every code: it loads covercode, searches the balls of
the code's first row while the code is being built, and only when that row
holds no witness finishes the code (with numpy where a block needs it) and
searches the rest (in the process pool when jobs > 1). The randomized
solver is the classic multi-restart random walk, generalized to move along
graph edges. Both find the first unsatisfied constraint with one shared
state (_ConstraintBits): bitset tables precomputed per group of consecutive
variables, so the unsatisfied set is one AND per group and a re-coloring is
one add to the group's table index. The ball search counts and tests its
radius-1 leaves inline instead of recursing into them, and rejects all the
leaves of a literal with one AND when they cannot clear the node's
unsatisfied set. A chunk context builds the ball searcher (or the walker)
once, so each ball only resets its index list and node count.
"""

from __future__ import annotations

import random
import sys
from contextlib import closing
from functools import reduce
from operator import and_
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from . import _debug
from .colorgraph import ColorGraph
from .formula import Formula, evaluate

__all__ = [
    "SearchStats",
    "SolveResult",
    "check_walk",
    "det_solve",
    "schoening_solve",
]

RngLike = Union[random.Random, int, None]


class SearchStats:
    """Counters of a solve, updated as it runs."""

    __slots__ = ("nodes_visited", "balls_searched", "repetitions", "steps", "max_ball_nodes")

    def __init__(self, nodes_visited: int = 0, balls_searched: int = 0, repetitions: int = 0,
                 steps: int = 0, max_ball_nodes: int = 0):
        self.nodes_visited, self.balls_searched, self.repetitions = nodes_visited, balls_searched, repetitions
        self.steps, self.max_ball_nodes = steps, max_ball_nodes

    def _key(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not SearchStats:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return "SearchStats(" + ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__) + ")"


class SolveResult(NamedTuple):
    """status is "sat", "unsat" (deterministic only) or "unknown" (randomized)."""

    status: str
    assignment: Optional[tuple[int, ...]]
    stats: SearchStats


def _as_rng(rng: RngLike) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


_TABLE_ENTRIES = 1 << 10  # most entries one group table may hold: (d+1)^g <= 2^10
_TABLE_BYTES = 2 << 20  # the tables may always take this much, or 4x the rows if more


def _table_entries(n: int, d: int, g: int) -> int:
    """Entries in the tables of n variables split into groups of g."""
    groups, rest = divmod(n, g)
    return groups * (d + 1) ** g + ((d + 1) ** rest if rest else 0)


def _group_size(n: int, d: int, entry_bytes: int) -> int:
    """The group size g for n variables: the fewest groups whose tables fit.

    A group of g may have (d+1)^g <= _TABLE_ENTRIES entries, and the tables
    together max(_TABLE_BYTES, 4x the rows) bytes. Of the sizes that give the
    fewest groups (so the fewest ANDs), g is the smallest, which holds the
    fewest entries: n = 12 at d = 3 is three groups of 4, not 5 + 5 + 2.
    g = 1 always fits: its tables are the rows.
    """
    cap = max(_TABLE_BYTES, 4 * _table_entries(n, d, 1) * entry_bytes)
    for groups in range(1, n):
        g = -(-n // groups)
        if (d + 1) ** g <= _TABLE_ENTRIES and _table_entries(n, d, g) * entry_bytes <= cap:
            return g
    return 1


class _ConstraintBits:
    """The constraints a coloring leaves unsatisfied, as bitsets looked up per variable group.

    The row of (variable v, color c) has bit i set iff coloring x_{v+1} with c
    leaves constraint i unsatisfied as far as that variable goes: every
    literal of constraint i on x_{v+1} is (x_{v+1} != c), vacuously so if there
    is none. Color 0 stands for a free variable and clears no constraint. A
    coloring alpha leaves constraint i unsatisfied iff bit i survives the AND
    of the rows alpha picks, so an empty constraint stays unsatisfied and a
    tautology satisfied with no special case.

    The rows are precomputed group by group: the variables fall into
    consecutive groups of `group` (g), and tables[j] holds, for every coloring
    of group j, the AND of the rows it picks, indexed in mixed radix d+1 with
    variable v weighing (d+1)^(v mod g). So the unsatisfied set is the AND of
    one entry per group, and re-coloring a variable adds (new - old) * weight
    to its group's index. g gives the fewest groups whose tables fit
    (_group_size); at g = 1 the tables are the rows themselves. The state
    holds no coloring: a search keeps the per-group index list, and index()
    and coloring() convert between the two.

    place[v] is (group, weight) of variable v. literals[i] holds
    (color, group, weight, row) for each literal of constraint i, row being
    the variable's rows by color; picks[i] is what the walk draws from:
    (literal count, its bit length, literals[i]).
    """

    def __init__(self, f: Formula):
        self.d = f.d
        full = (1 << f.m) - 1
        # cleared[v][c]: the constraints that x_{v+1} = c satisfies, bit-packed
        cleared = [[bytearray((f.m + 7) // 8) for _ in range(f.d + 1)] for _ in range(f.n)]
        for i, con in enumerate(f.constraints):
            byte, bit = i >> 3, 1 << (i & 7)
            for lit in con.literals:
                row = cleared[lit.var - 1]
                for c in range(1, f.d + 1):
                    if c != lit.color:
                        row[c][byte] |= bit
        rows = [[full ^ int.from_bytes(b, "little") for b in row] for row in cleared]
        entry_bytes = sys.getsizeof(full) + 8  # an upper bound: the int and its list slot
        self.group = g = _group_size(f.n, f.d, entry_bytes)
        self.table_bytes = _table_entries(f.n, f.d, g) * entry_bytes  # an upper bound
        self.tables: list[list[int]] = []
        self.place: list[tuple[int, int]] = []
        for start in range(0, f.n, g):
            j, table, w = len(self.tables), rows[start], 1
            self.place.append((j, 1))
            for row in rows[start + 1 : start + g]:
                w *= f.d + 1
                table = [t & r for r in row for t in table]
                self.place.append((j, w))
            self.tables.append(table)
        if not self.tables:  # n = 0: one entry, so the AND needs no initial value
            self.tables.append([full])
        self.literals = [
            tuple((x.color,) + self.place[x.var - 1] + (rows[x.var - 1],) for x in con.literals)
            for con in f.constraints
        ]
        self.picks = [(len(t), len(t).bit_length(), t) for t in self.literals]
        _debug(
            __name__, "constraint state n=%d d=%d m=%d: %d groups of %d, %d table entries, %d table bytes",
            f.n, f.d, f.m, len(self.tables), g, sum(map(len, self.tables)), self.table_bytes,
        )

    def index(self, alpha: Sequence[int]) -> list[int]:
        """The per-group table indices of coloring alpha."""
        idx = [0] * len(self.tables)
        for (j, w), c in zip(self.place, alpha):
            idx[j] += c * w
        return idx

    def coloring(self, idx: Sequence[int]) -> tuple[int, ...]:
        """The coloring whose per-group indices are idx."""
        return tuple(idx[j] // w % (self.d + 1) for j, w in self.place)

    def unsat(self, alpha: Sequence[int]) -> int:
        """Bitset of the constraints alpha leaves unsatisfied."""
        return reduce(and_, map(list.__getitem__, self.tables, self.index(alpha)))


def _check_graph(f: Formula, g: ColorGraph) -> None:
    if g.d != f.d:
        raise ValueError(f"graph has {g.d} colors, formula has {f.d}")


def _ball_searcher(
    state: _ConstraintBits, out: tuple[tuple[int, ...], ...], r: int
) -> Callable[[Sequence[int]], tuple[Optional[tuple[int, ...]], int]]:
    """The radius-r ball search: center -> (witness or None, nodes visited).

    Built once per chunk context; a call resets only the index list and the
    node count. A node branches on the literals of its first unsatisfied
    constraint in order, re-coloring the literal's variable to each
    out-neighbor of its color in sorted order. A node with one edit left
    counts its leaves in place. Its unsatisfied set is `rest` (what the other
    variables leave) AND the old color's row, so one AND of the set with a
    literal's cover (the AND of its leaves' rows) rejects the leaves that
    keep an unsatisfied constraint. Each constraint in the set holds the
    variable at its old color or not at all, so a literal's leaves pass or
    fail together, and only those that pass cost `rest` and one AND each.
    """
    tables, coloring = state.tables, state.coloring
    getitem = list.__getitem__
    # branches[j, w, c]: the branch of every literal on the variable at (j, w)
    # with color c: (j, c * w, children, cover), children holding (c2 * w,
    # row[c2]) per out-neighbor c2 of c and cover the AND of those rows;
    # plan[i]: the branches of constraint i's literals, in order
    branches: dict[tuple[int, int, int], tuple] = {}
    for lits in state.literals:
        for c, j, w, row in lits:
            if (j, w, c) not in branches:
                children = tuple((c2 * w, row[c2]) for c2 in out[c - 1])
                branches[j, w, c] = (j, c * w, children, reduce(and_, (b for _, b in children), -1))
    plan = [tuple(branches[j, w, c] for c, j, w, _ in lits) for lits in state.literals]
    idx: list[int] = []
    nodes = 0

    def last(unsat: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        if not unsat:
            return coloring(idx)
        for j, cw, children, cover in plan[(unsat & -unsat).bit_length() - 1]:
            if unsat & cover:
                nodes += len(children)
                continue
            base = idx[j] - cw
            idx[j] = base
            rest = reduce(and_, map(getitem, tables, idx))
            for c2w, bits in children:
                nodes += 1
                if not rest & bits:
                    idx[j] = base + c2w
                    return coloring(idx)
            idx[j] = base + cw
        return None

    def rec(budget: int, unsat: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        if not unsat:
            return coloring(idx)
        for j, cw, children, _ in plan[(unsat & -unsat).bit_length() - 1]:
            # the constraint is unsatisfied, so the literal's variable has its
            # color; with it freed, `rest` is what the other variables leave
            base = idx[j] - cw
            idx[j] = base
            rest = reduce(and_, map(getitem, tables, idx))
            for c2w, bits in children:
                idx[j] = base + c2w
                found = rec(budget - 1, rest & bits) if budget > 2 else last(rest & bits)
                if found is not None:
                    return found
            idx[j] = base + cw
        return None

    def search(center: Sequence[int]) -> tuple[Optional[tuple[int, ...]], int]:
        nonlocal nodes
        idx[:] = state.index(center)
        nodes = 0
        unsat = reduce(and_, map(getitem, tables, idx))
        if r == 0:
            return (None if unsat else coloring(idx)), 1
        found = rec(r, unsat) if r > 1 else last(unsat)
        return found, nodes

    return search


def _validate_walk_graph(f: Formula, g: ColorGraph) -> None:
    _check_graph(f, g)
    for c, nbrs in enumerate(g.out, start=1):
        if not nbrs:
            raise ValueError(f"color {c} has no out-neighbor; random walk would get stuck")


def _walk_moves(out: tuple[tuple[int, ...], ...]) -> tuple:
    """moves[c]: (new color - c for each out-neighbor of c, their count, its bit length)."""
    return ((),) + tuple((tuple(c2 - c for c2 in nbrs), len(nbrs), len(nbrs).bit_length())
                         for c, nbrs in enumerate(out, start=1))


def _walk_core(
    state: _ConstraintBits, moves: tuple, rng: RngLike, steps: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """One random walk from a fresh random start; returns (witness or None, steps taken).

    moves is _walk_moves of the graph's out-neighbors. A draw below N inlines
    random.Random.randrange(N): getrandbits(N.bit_length()), redrawn until
    below N, so the getrandbits calls and the walk are randrange's (and the
    start coloring randint(1, d)'s).
    """
    tables, picks, d = state.tables, state.picks, state.d
    rng = _as_rng(rng)
    getrandbits = rng.getrandbits
    idx = [0] * len(tables)
    width = d.bit_length()
    for j, w in state.place:
        c = getrandbits(width)
        while c >= d:
            c = getrandbits(width)
        idx[j] += (c + 1) * w
    getitem = list.__getitem__
    for taken in range(steps):
        u = reduce(and_, map(getitem, tables, idx))
        if not u:
            return state.coloring(idx), taken
        count, width, lits = picks[(u & -u).bit_length() - 1]
        if not count:
            return None, taken
        i = getrandbits(width)
        while i >= count:
            i = getrandbits(width)
        c, j, w, _ = lits[i]
        deltas, count, width = moves[c]
        i = getrandbits(width)
        while i >= count:
            i = getrandbits(width)
        idx[j] += deltas[i] * w
    u = reduce(and_, map(getitem, tables, idx))
    return (None if u else state.coloring(idx)), steps


def _verify_witness(f: Formula, witness: tuple[int, ...]) -> None:
    ok, bad = evaluate(f, witness)
    if not ok:
        raise RuntimeError(f"internal error: witness fails constraint {bad}")


_NEVER = SimpleNamespace(value=0)  # the stop flag of an in-process run: never set
_worker: tuple = ()  # a pool worker's chunk context, built once by _init_worker


def _walker(state: _ConstraintBits, moves: tuple, steps: int) -> Callable:
    """The walk of `steps` steps: a function of the seed returning _walk_core's result."""
    return lambda seed: _walk_core(state, moves, seed, steps)


def _chunk_context(make: Callable, f: Formula, out: tuple, arg: int, stop=_NEVER) -> tuple:
    """(run, stop): what _search_chunk needs besides its items.

    run = make(state, out, arg) maps one item to (witness or None, count); it
    is built once per context, so once per solve in process and once per pool
    worker.
    """
    return make(_ConstraintBits(f), out, arg), stop


def _init_worker(*args) -> None:
    global _worker
    _worker = _chunk_context(*args)


def _search_chunk(items: Sequence, context: tuple = ()) -> list[tuple[Optional[tuple[int, ...]], int]]:
    """run(item) per item, up to the first witness or until stop is set.

    Without a context, the worker's own (set by _init_worker) is used.
    """
    run, stop = context or _worker
    results = []
    for item in items:
        if stop.value:
            break
        results.append(run(item))
        if results[-1][0] is not None:
            break
    return results


def _chunked(items: Sequence, jobs: int) -> list[Sequence]:
    size = max(1, -(-len(items) // (jobs * 4)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _run_chunks(items: Sequence, args: tuple, jobs: int, context: tuple = ()) -> Iterator:
    """Yield _search_chunk's per-item results over all chunks of `items`, in item order.

    args = (make, formula, out, arg) becomes one context, built in process when
    jobs == 1 (or taken from `context` if given), else once in each of up to
    `jobs` processes that take the chunks (sent as items alone) and are read
    back in order, so the caller sees the same results for every `jobs`.
    Closing the generator (the caller stops at a witness) cancels the chunks
    not started and sets a stop flag checked before each item, so running
    chunks end early; their results are never read.
    """
    chunks = _chunked(items, jobs)
    if jobs == 1 or len(chunks) <= 1:
        context = context or _chunk_context(*args)
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


def check_walk(
    f: Formula, g: ColorGraph, repetitions: int, steps_multiplier: Optional[int] = None, jobs: int = 1
) -> None:
    """Raise ValueError unless schoening_solve can run these walks."""
    _check_jobs(jobs)
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    _validate_walk_graph(f, g)
    if steps_multiplier is not None and steps_multiplier < 0:
        raise ValueError("steps multiplier must be nonnegative")


def schoening_solve(
    f: Formula,
    g: ColorGraph,
    repetitions: int,
    steps_multiplier: Optional[int] = None,
    rng: RngLike = None,
    jobs: int = 1,
) -> SolveResult:
    """Repeat a random walk with independent per-repetition substreams.

    Each walk starts from a uniform random assignment; while some constraint
    is unsatisfied, it picks one of its literals uniformly at random and
    re-colors the literal's variable to a uniform out-neighbor of the
    literal's color. With the complete graph this is the classic walk (new
    color uniform among the d-1 others). Walk length is steps_multiplier * n,
    default 3(d-1) (the classic 3n for d = 2). Results are reproducible given
    a seed, independently of `jobs`.
    """
    check_walk(f, g, repetitions, steps_multiplier, jobs)
    c = steps_multiplier if steps_multiplier is not None else 3 * (f.d - 1)
    steps = c * f.n
    master = _as_rng(rng)
    seeds = [master.getrandbits(64) for _ in range(repetitions)]
    stats = SearchStats()
    with closing(_run_chunks(seeds, (_walker, f, _walk_moves(g.out), steps), jobs)) as results:
        for witness, used in results:
            stats.repetitions += 1
            stats.steps += used
            if witness is not None:
                _verify_witness(f, witness)
                return SolveResult("sat", witness, stats)
    return SolveResult("unknown", None, stats)


def _ball_results(f: Formula, g: ColorGraph, block_cap: Optional[int], jobs: int) -> Iterator:
    """(witness or None, nodes) of each codeword's ball search, in code order.

    The code's first row (covercode.first_row) is searched in process, ball j
    as soon as the last block's greedy has made pick j. Only past that row is
    the whole code built and checked, and the other balls (none for a
    one-block or n = 0 code) go through _run_chunks.
    """
    from . import covercode

    if block_cap is None:
        block_cap = covercode.DEFAULT_BLOCK_CAP
    radius, row = covercode.first_row(g, f.n, f.k, block_cap)
    args = (_ball_searcher, f, g.out, radius)
    context = _chunk_context(*args)
    searched = _search_chunk(row, context)
    yield from searched
    code = covercode.build_code(g, f.n, f.k, block_cap)
    with closing(_run_chunks(code.codewords[len(searched):], args, jobs, context)) as results:
        yield from results


def det_solve(
    f: Formula,
    g: ColorGraph,
    block_cap: Optional[int] = None,
    jobs: int = 1,
) -> SolveResult:
    """Complete deterministic solver: covering code plus ball search.

    Searches the ball of each codeword of build_code(g, n, k, block_cap) in
    order (block_cap None means covercode.DEFAULT_BLOCK_CAP), stopping at the
    first witness. The code's first row is searched while the code is built,
    and only the balls past it go to the process pool; the code's coverage
    and counting checks all run before an "unsat" answer, which its coverage
    makes complete. Output (including stats) does not depend on `jobs`.
    """
    _check_jobs(jobs)
    _check_graph(f, g)
    stats = SearchStats()
    with closing(_ball_results(f, g, block_cap, jobs)) as results:
        for witness, nodes in results:
            stats.nodes_visited += nodes
            stats.balls_searched += 1
            stats.max_ball_nodes = max(stats.max_ball_nodes, nodes)
            if witness is not None:
                _verify_witness(f, witness)
                return SolveResult("sat", witness, stats)
    return SolveResult("unsat", None, stats)
