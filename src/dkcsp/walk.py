"""The random walk's setup, its kernel and its draws from one block of bytes per restart.

search.schoening_solve runs the walks and states their draws; this module
checks them (check_walk: the length default, the stuck-color rule and the
block bound) and builds what they run. Each walk reads its draws from a
block of random bytes, W bytes a draw, and looks each one up in the table
of its option count, so a step costs one read and one lookup. The master
generator draws the blocks in restart order (_Restarts), so a seed gives
the same walks however many processes run them. The walk is kept apart
from the ball search so that a det solve never loads its code.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator, Optional, Sequence, Union

from .colorgraph import ColorGraph
from .formula import Formula
from .search import _check_graph, _check_jobs, _ConstraintBits, _kernel

_BLOCK_BYTES = (2**31 - 1) // 8  # the most bytes one restart's block may take: its memory bound
_WALK = """
def make(tables, picks, start, draws, steps, coloring, Random, random_block):
    def redraw(table, block, p, spare):
        # the draw before p was rejected: draw until one is accepted, doubling
        # the block with bytes seeded by it once the redraws use up its spare
        while True:
            spare -= 1
            if spare < 0:
                spare += len(block) // WIDTH
                block += random_block(Random(block), len(block))
            x = table[READ]
            p += WIDTH
            if x >= 0:
                return x, block, p, spare

    def walk(block):
        TABLES = tables
        idx = [0] * len(tables)
        p, spare = 0, len(block) // WIDTH - draws
        for j, table in start:
            c = table[READ]
            p += WIDTH
            if c < 0:
                c, block, p, spare = redraw(table, block, p, spare)
            idx[j] += c
        for taken in range(steps):
            u = UNSAT
            if not u:
                return coloring(idx), taken
            options, table = picks[(u ^ (u - 1)).bit_length()]
            o = table[READ]
            p += WIDTH
            if o < 0:
                if not options:
                    return None, taken
                o, block, p, spare = redraw(table, block, p, spare)
            j, dw = options[o]
            idx[j] += dw
        u = UNSAT
        return (None if u else coloring(idx)), steps
    return walk
"""


def _walk_shape(d: int, widths: set[int], out: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """(L, W) of walks on a graph with out-neighbors `out`, over constraints
    of the given literal counts: L is the lcm of the out-degrees, so a
    literal has L options, each out-neighbor L/delta times, and W is the bytes
    per draw, the fewest that cover the d start colors and every count * L."""
    lcm = math.lcm(*map(len, out))
    top = max(d, max(widths, default=0) * lcm)
    return lcm, max(1, ((top - 1).bit_length() + 7) // 8)


def _block_size(f: Formula, out: tuple[tuple[int, ...], ...], steps: int) -> int:
    """Bytes of one walk's block: a W-byte draw for each start color and step,
    spare draws four standard deviations past the redraws' mean, at the
    likeliest redraw, and the rest of the last 32-bit word drawn."""
    widths = {len(con.literals) for con in f.constraints} - {0}
    lcm, width = _walk_shape(f.d, widths, out)
    full = 256**width
    q = max(full % c for c in {f.d} | {w * lcm for w in widths}) / full
    draws = min(f.n + steps, _BLOCK_BYTES)  # capped for the floats; capped, it is still too big
    spare = math.ceil((draws * q + 4 * math.sqrt(draws * q)) / (1 - q)) + 1
    size = -(-(draws + spare) * width // 4) * 4
    if size > _BLOCK_BYTES:
        raise ValueError(f"a {steps}-step walk's block is over {_BLOCK_BYTES} bytes; lower --steps-mult")
    return size


def check_walk(
    f: Formula, g: ColorGraph, repetitions: int, steps_multiplier: Optional[int] = None, jobs: int = 1
) -> tuple[int, int]:
    """Raise ValueError unless schoening_solve can draw and run these walks;
    return their steps and the bytes of each one's block."""
    _check_jobs(jobs)
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    _check_graph(f, g)
    for c, nbrs in enumerate(g.out, start=1):
        if not nbrs:
            raise ValueError(f"color {c} has no out-neighbor; random walk would get stuck")
    if steps_multiplier is not None and steps_multiplier < 0:
        raise ValueError("steps multiplier must be nonnegative")
    steps = (3 * (f.d - 1) if steps_multiplier is None else steps_multiplier) * f.n
    return steps, _block_size(f, g.out, steps)


class _WideTable:
    """A draw table for W > 1 bytes, computed per draw: x -> values[x mod
    len(values)], or -1 (draw again) from lim, the largest multiple of the
    length that 256^W holds."""

    __slots__ = ("values", "lim")

    def __init__(self, values: Sequence[int], lim: int):
        self.values, self.lim = values, lim

    def __getitem__(self, x: int) -> int:
        return self.values[x % len(self.values)] if x < self.lim else -1


def _draw_table(values: Sequence[int], width: int) -> Union[list[int], _WideTable]:
    """The table a W-byte draw x looks up: values[x mod len(values)] below
    the largest multiple of len(values) that 256^W holds, -1 from there (a
    list of 256 entries at W = 1)."""
    full = 256**width
    lim = full - full % len(values) if values else 0
    if width > 1:
        return _WideTable(values, lim)
    return [*values] * (lim // max(1, len(values))) + [-1] * (256 - lim)


class _Spread:
    """The count * L options of a constraint, unmaterialized (for W > 1):
    option o is out-neighbor option o mod delta of literal o // L, as in the
    repeated tuples (delta divides L)."""

    __slots__ = ("literals", "lcm")

    def __init__(self, literals: tuple[tuple[tuple[int, int], ...], ...], lcm: int):
        self.literals, self.lcm = literals, lcm

    def __len__(self) -> int:  # 0 for an empty constraint, whose walks end at their first draw
        return len(self.literals) * self.lcm

    def __getitem__(self, o: int) -> tuple[int, int]:
        options = self.literals[o // self.lcm]
        return options[o % len(options)]


def _walker(state: _ConstraintBits, out: tuple[tuple[int, ...], ...], steps: int) -> Callable:
    """The state's _WALK kernel: block -> (witness or None, steps taken) of a
    `steps`-step walk from a random start, drawn from the block's bytes as
    schoening_solve describes. A draw reads W bytes as x and looks it up in
    the _draw_table of its option count. A start draw picks (c + 1) * w for
    color c of the variable at weight w, and a step draw a (group, (c2 - c)
    * w) pair of the first unsatisfied constraint: at W = 1 from its options
    materialized, each distinct literal's L options shared, above 256
    options from a _Spread."""
    n = len(state.place)
    widths = {len(lits) for lits in state.literals}
    lcm, width = _walk_shape(state.d, widths, out)
    weights = {w: _draw_table(tuple((c + 1) * w for c in range(state.d)), width)
               for w in {w for _, w in state.place}}
    start = tuple((j, weights[w]) for j, w in state.place)
    # options[e]: the out-neighbor options of distinct literal e, on the
    # variable at (j, w) with color c, each out-neighbor L/delta times at W = 1
    options = []
    for c, j, w, _ in state.distinct:
        mine = tuple((j, (c2 - c) * w) for c2 in out[c - 1])
        options.append(mine if width > 1 else mine * (lcm // len(mine)))
    counts = {k: _draw_table(range(k * lcm), width) for k in widths}
    picks: list = [None]  # picks[i + 1]: constraint i's options and table
    for lits in state.literals:
        mine = tuple(map(options.__getitem__, lits))
        picks.append((_Spread(mine, lcm) if width > 1 else sum(mine, ()), counts[len(lits)]))
    read = "block[p]" if width == 1 else f'int.from_bytes(block[p : p + {width}], "little")'
    make = _kernel(_WALK.replace("READ", read).replace("WIDTH", str(width)), len(state.tables))
    return make(state.tables, picks, start, n + steps, steps, state.coloring, random.Random, _random_block)


def _random_block(rng: random.Random, size: int) -> bytearray:
    """rng.randbytes(size), drawn 1 MiB (whole 32-bit words) at a time into one
    buffer: the same bytes, without randbytes' integer of 8 * size bits."""
    block = bytearray(size)
    for lo in range(0, size, 1 << 20):
        block[lo : lo + (1 << 20)] = rng.randbytes(min(1 << 20, size - lo))
    return block


class _Restarts:
    """The blocks of `count` walks, `size` random bytes each, drawn from rng in
    restart order.

    Iterating draws each block from rng as its walk starts. A slice holds a
    copy of rng advanced to its first restart, and a count, so a pool chunk
    pickles as one generator state however many walks it holds.
    """

    __slots__ = ("rng", "count", "size")

    def __init__(self, rng: random.Random, count: int, size: int):
        self.rng, self.count, self.size = rng, count, size

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: slice) -> _Restarts:
        lo, hi, step = slice.indices(index, self.count)
        if step != 1:
            raise ValueError("restart slices must be contiguous (step 1)")
        rng = random.Random()
        rng.setstate(self.rng.getstate())
        for _ in range(lo):
            _random_block(rng, self.size)
        return _Restarts(rng, max(lo, hi) - lo, self.size)

    def __iter__(self) -> Iterator[bytearray]:
        rng, size = self.rng, self.size
        return (_random_block(rng, size) for _ in range(self.count))
