"""Ball search and random-walk solvers for (d,k)-CSP formulas.

The deterministic solver covers the assignment space with product-distance
balls (see covercode) and searches each ball by branching over the literals
of the first unsatisfied constraint, re-coloring along graph edges only. It
takes one path for every code: it loads covercode, searches the balls of
the code's first row while the code is being built, and only when that row
holds no witness finishes the code and searches the rest (in the process
pool when jobs > 1). The randomized solver is the classic multi-restart
random walk, generalized to move along graph edges; its checks, kernel and
draws, from one block of random bytes per restart, are in walk. Both find
the first unsatisfied constraint with one shared state (_ConstraintBits):
bitset tables precomputed per group of consecutive variables, so a
re-coloring is one add to the group's table index, and one table of the
distinct literals, which both kernels index per constraint and look up
the same way. Both kernels are compiled once per group count G from source
templates, so the unsatisfied set is one inline AND of G table entries.
Each is built once per solve in process and once per pool worker. In
process, a solve maps it over its items and stops by returning; only pool
workers take the items in chunks and read a stop flag.
"""

from __future__ import annotations

import os
import random
import sys
from contextlib import closing
from functools import lru_cache, reduce
from operator import and_
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import _Record
from .colorgraph import ColorGraph
from .formula import Formula, evaluate

__all__ = [
    "SearchStats",
    "SolveResult",
    "det_solve",
    "schoening_solve",
]


class SearchStats(_Record):
    """Counters of a solve, updated as it runs (so unhashable)."""

    __slots__ = ("nodes_visited", "balls_searched", "repetitions", "steps", "max_ball_nodes")
    __hash__ = None

    def __init__(self, nodes_visited: int = 0, balls_searched: int = 0, repetitions: int = 0,
                 steps: int = 0, max_ball_nodes: int = 0):
        self.nodes_visited, self.balls_searched, self.repetitions = nodes_visited, balls_searched, repetitions
        self.steps, self.max_ball_nodes = steps, max_ball_nodes


class SolveResult(NamedTuple):
    """status is "sat", "unsat" (deterministic only) or "unknown" (randomized)."""

    status: str
    assignment: Optional[tuple[int, ...]]
    stats: SearchStats


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

    place[v] is (group, weight) of variable v. distinct holds (color, group,
    weight, row) once per distinct literal, first appearance first, row being
    the variable's rows by color; literals[i] indexes constraint i's literals
    in it. Both kernels build one entry per distinct literal and keep
    constraint i's at i + 1, (u ^ (u - 1)).bit_length() for lowest bit i of u.
    """

    def __init__(self, f: Formula):
        self.d = f.d
        full = (1 << f.m) - 1
        # on[v][c]: the constraints with the literal (x_{v+1} != c), bit-packed
        on = [[bytearray((f.m + 7) // 8) for _ in range(f.d + 1)] for _ in range(f.n)]
        for i, con in enumerate(f.constraints):
            byte, bit = i >> 3, 1 << (i & 7)
            for var, color in con.literals:
                on[var - 1][color][byte] |= bit
        rows = []
        for row in on:
            # x_{v+1} = c leaves constraint i unsatisfied iff every literal of i on
            # x_{v+1} is (x_{v+1} != c): i has none (not in seen) or only that
            # color's (not in twice, the constraints with two colors of x_{v+1})
            colors = [int.from_bytes(b, "little") for b in row]
            seen = twice = 0
            for bits in colors:
                twice |= seen & bits
                seen |= bits
            rows.append([full] + [(full ^ seen) | (bits & ~twice) for bits in colors[1:]])
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
        at: dict = {}  # (v, c): its index in distinct
        self.literals = [tuple(at.setdefault(x, len(at)) for x in con.literals) for con in f.constraints]
        self.distinct = [(c, *self.place[v - 1], rows[v - 1]) for v, c in at]

    def index(self, alpha: Sequence[int]) -> list[int]:
        """The per-group table indices of coloring alpha."""
        idx = [0] * len(self.tables)
        for (j, w), c in zip(self.place, alpha):
            idx[j] += c * w
        return idx

    def coloring(self, idx: Sequence[int]) -> tuple[int, ...]:
        """The coloring whose per-group indices are idx."""
        return tuple(idx[j] // w % (self.d + 1) for j, w in self.place)


def _check_graph(f: Formula, g: ColorGraph) -> None:
    if g.d != f.d:
        raise ValueError(f"graph has {g.d} colors, formula has {f.d}")


def _and_tree(lo: int, hi: int) -> str:
    """`t{lo}[idx[{lo}]] & ... & t{hi-1}[idx[{hi-1}]]`, a balanced tree of &."""
    if hi - lo == 1:
        return f"t{lo}[idx[{lo}]]"
    mid = (lo + hi) // 2
    return f"({_and_tree(lo, mid)} & {_and_tree(mid, hi)})"


@lru_cache(maxsize=None)
def _kernel(template: str, groups: int) -> Callable:
    """The template's `make`, compiled once per group count: TABLES becomes the
    names t0, ..., t{groups-1} it binds the tables to, and UNSAT their AND at
    idx, one inline expression (a tree: a chain of ~3,000 terms overflows the
    compiler). Kernels that one `make` builds share its code objects."""
    names = "".join(f"t{j}, " for j in range(groups))
    source = template.replace("TABLES", names).replace("UNSAT", _and_tree(0, groups))
    namespace: dict = {}
    exec(compile(source, f"<kernel, {groups} groups>", "exec"), namespace)
    return namespace["make"]


_BALL_SEARCH = """
def make(tables, plan, index, coloring, r):
    TABLES = tables
    idx = []
    nodes = 0

    def last(unsat):
        nonlocal nodes
        nodes += 1
        if not unsat:
            return coloring(idx)
        for j, cw, children, cover in plan[(unsat ^ (unsat - 1)).bit_length()]:
            if unsat & cover:
                nodes += len(children)
                continue
            base = idx[j] - cw
            idx[j] = base
            rest = UNSAT
            for c2w, bits in children:
                nodes += 1
                if not rest & bits:
                    idx[j] = base + c2w
                    return coloring(idx)
            idx[j] = base + cw
        return None

    def rec(budget, unsat):
        nonlocal nodes
        nodes += 1
        if not unsat:
            return coloring(idx)
        for j, cw, children, _ in plan[(unsat ^ (unsat - 1)).bit_length()]:
            # the constraint is unsatisfied, so the literal's variable has its
            # color; with it freed, `rest` is what the other variables leave
            base = idx[j] - cw
            idx[j] = base
            rest = UNSAT
            for c2w, bits in children:
                idx[j] = base + c2w
                found = rec(budget - 1, rest & bits) if budget > 2 else last(rest & bits)
                if found is not None:
                    return found
            idx[j] = base + cw
        return None

    def search(center):
        nonlocal nodes
        idx[:] = index(center)
        nodes = 0
        unsat = UNSAT
        if r == 0:
            return (None if unsat else coloring(idx)), 1
        found = rec(r, unsat) if r > 1 else last(unsat)
        return found, nodes
    return search
"""


def _ball_searcher(
    state: _ConstraintBits, out: tuple[tuple[int, ...], ...], r: int
) -> Callable[[Sequence[int]], tuple[Optional[tuple[int, ...]], int]]:
    """The radius-r ball search: center -> (witness or None, nodes visited).

    Built once per solve (or pool worker) from the state's _BALL_SEARCH
    kernel; a call resets only the index list and the node count. A node
    branches on the literals of its first unsatisfied constraint in order,
    re-coloring the literal's variable to each out-neighbor of its color in
    sorted order. A node with one edit left (`last`) counts its leaves in
    place. Its unsatisfied set is `rest` (what the other variables leave) AND
    the old color's row, so one AND of the set with a literal's cover (the AND
    of its leaves' rows) rejects the leaves that keep an unsatisfied
    constraint. Each constraint in the set holds the variable at its old color
    or not at all, so a literal's leaves pass or fail together, and only those
    that pass cost `rest` and one AND each.
    """
    # branches[e]: distinct literal e's branch (j, c * w, children, cover),
    # children holding (c2 * w, row[c2]) per out-neighbor c2 of its color c and
    # cover their rows' AND; plan[i + 1]: constraint i's branches, in order
    branches = []
    for c, j, w, row in state.distinct:
        children = tuple((c2 * w, row[c2]) for c2 in out[c - 1])
        branches.append((j, c * w, children, reduce(and_, (b for _, b in children), -1)))
    plan = [None, *(tuple(map(branches.__getitem__, lits)) for lits in state.literals)]
    make = _kernel(_BALL_SEARCH, len(state.tables))
    return make(state.tables, plan, state.index, state.coloring, r)


def _verify_witness(f: Formula, witness: tuple[int, ...]) -> None:
    ok, bad = evaluate(f, witness)
    if not ok:
        raise RuntimeError(f"internal error: witness fails constraint {bad}")


_worker: tuple = ()  # a pool worker's (run, stop), built once by _init_worker


def _runner(make: Callable, f: Formula, out: tuple, arg: int) -> Callable:
    """make(state, out, arg): maps one item to (witness or None, count)."""
    return make(_ConstraintBits(f), out, arg)


def _init_worker(make: Callable, f: Formula, out: tuple, arg: int, stop) -> None:
    global _worker
    _worker = _runner(make, f, out, arg), stop


def _search_chunk(items: Sequence) -> list[tuple[Optional[tuple[int, ...]], int]]:
    """A pool worker's run(item) per item, up to the first witness or until stop is set."""
    run, stop = _worker
    results = []
    for item in items:
        if stop.value:
            break
        results.append(run(item))
        if results[-1][0] is not None:
            break
    return results


def _chunked(items: Sequence, jobs: int) -> list[Sequence]:
    """About 4 * jobs contiguous slices, each cut from the rest of the last."""
    size = max(1, -(-len(items) // (jobs * 4)))
    chunks = []
    while len(items):
        chunks.append(items[:size])
        items = items[size:]
    return chunks


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _run_chunks(items: Sequence, args: tuple, jobs: int, run: Optional[Callable] = None) -> Iterator:
    """Yield run(item) for each of `items`, in item order.

    args = (make, formula, out, arg) builds run (_runner). In process (jobs
    == 1, or a single chunk) this is map(run, items), run being built here
    unless given; the caller stops it by closing the generator. Otherwise up
    to `jobs` processes, one per CPU at most since the pool starts them all
    at once, each build run once and take chunks of items (sent as items
    alone), read back in order, so the caller sees the same results for
    every `jobs`. Closing the generator then cancels the chunks not started
    and sets a stop flag the workers check before each item, so running
    chunks end early; their results are never read.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    chunks = _chunked(items, jobs) if jobs > 1 else ()
    if len(chunks) <= 1:
        yield from map(run or _runner(*args), items)
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
    rng: Optional[int] = None,
    jobs: int = 1,
) -> SolveResult:
    """Repeat a random walk from independent random starts.

    Each walk starts from a uniform random assignment; while some constraint
    is unsatisfied, it picks one of its literals uniformly at random and
    re-colors the literal's variable to a uniform out-neighbor of the
    literal's color. With the complete graph this is the classic walk (new
    color uniform among the d-1 others). Walk length is steps_multiplier * n,
    default 3(d-1) (the classic 3n for d = 2).

    random.Random(rng), rng an int seed or None, draws one block of random
    bytes per walk (randbytes' bytes), in restart order, and the walk reads
    its draws from it, W bytes each (one unless a draw has more than 256
    options), redrawing a value past the largest multiple of the option
    count. A step draws its (literal, out-neighbor) pair in one draw, among
    the options of all the constraint's literals, each literal holding each
    out-neighbor of its color L/delta times (L the lcm of the out-degrees).
    The block holds the n + steps draws and spare ones for redraws; a walk
    whose redraws use up the spare goes on with bytes from random.Random
    seeded by its block. Results are reproducible given a seed,
    independently of `jobs`. walk.check_walk states what is refused.
    """
    from .walk import _Restarts, _walker, check_walk

    steps, size = check_walk(f, g, repetitions, steps_multiplier, jobs)
    restarts = _Restarts(random.Random(rng), repetitions, size)
    stats = SearchStats()
    with closing(_run_chunks(restarts, (_walker, f, g.out, steps), jobs)) as results:
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
    one-block or n = 0 code) go through _run_chunks with the same searcher.
    """
    from . import covercode

    radius, row = covercode.first_row(g, f.n, f.k, block_cap)
    args = (_ball_searcher, f, g.out, radius)
    run = _runner(*args)
    searched = 0
    for result in map(run, row):
        searched += 1
        yield result
    code = covercode.build_code(g, f.n, f.k, block_cap)
    with closing(_run_chunks(code.codewords[searched:], args, jobs, run)) as results:
        yield from results


def det_solve(
    f: Formula,
    g: ColorGraph,
    block_cap: Optional[int] = None,
    jobs: int = 1,
) -> SolveResult:
    """Complete deterministic solver: covering code plus ball search.

    Searches the ball of each codeword of build_code(g, n, k, block_cap) in
    order (block_cap None: no cap, only covercode's gain-update budget per
    block), stopping at the first witness. The code's first row is searched
    while the code is built, and only the balls past it go to the process
    pool; the code's coverage and counting checks all run before an "unsat"
    answer, which its coverage makes complete. Output (including stats) does not depend on `jobs`.
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
