"""Deterministic covering codes for product-graph balls.

A covering code of radius r is a set of assignments whose radius-r balls
cover all of [d]^n. Construction: split the n coordinates into blocks small
enough to enumerate, run greedy set cover over each block's ground set with
balls as candidate sets, and take the Cartesian product of the block codes
(radii add across blocks).

The greedy keeps every center's gain (uncovered points in its ball) on plain
lists and updates it incrementally: each pick subtracts its newly covered
points from the gains of the centers whose balls hold them, the points'
inward balls. A block of d^b points at radius r costs d^b * Vol(b, r) such
gain updates in all. plan_blocks decides and checks every code's blocks in
one place: it keeps each block within _MAX_GAIN_UPDATES of them, so no
default code builds a block that takes more than a few seconds, and rejects
a disconnected graph. The greedy is a sequence of picks made on demand
(BlockPicks), so the first picks can be used before the rest exist:
first_row yields the code's first row as the last block's greedy makes its
picks, and build_code finishes the same picks. One BlockPicks per block
size and radius, cached, is the only code cache. Each finished block code
is checked to cover its block by marking every codeword's ball, which by
additivity proves coverage of the product; the check raises, so it also
runs under python -O.

The product itself is never materialised: ProductCodewords is a length,
contiguous slices and iteration over the block codes, and a slice of it is
the same block codes plus an index range, walked with itertools.product.
A CoveringCode stores only these codewords, the graph and the block radii,
and format_code_file writes the product a chunk of lines at a time.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import lru_cache
from typing import Iterator

from .colorgraph import ColorGraph, profile
from .volume import ball_volume, select_radius

__all__ = [
    "BlockPicks",
    "CoveringCode",
    "ProductCodewords",
    "build_code",
    "first_row",
    "format_code_file",
    "greedy_cover",
    "plan_blocks",
    "product_code",
]

# the most gain updates, d^b * Vol(b, r), one block's greedy may make (up to
# about 2 s on lists): the smallest power of two that admits the 3^9 blocks
# of every k = 3 code with an explicit cap of 3^9 (cycle, r = 3: 4,153,113)
_MAX_GAIN_UPDATES = 1 << 22

Codeword = tuple[int, ...]


class ProductCodewords:
    """The codewords [start, stop) of the Cartesian product of block codes.

    Codeword i concatenates one codeword per block, in itertools.product
    order (the last block varies fastest). It has a length, contiguous
    slices and iteration, nothing more: a slice is the same block codes
    with a narrower range, and pickles as such. Iterating skips the product
    of the head blocks to start's prefix and yields each prefix joined with
    a slice of the last block's codewords.
    """

    __slots__ = ("codes", "start", "stop")

    def __init__(self, codes: tuple[tuple[Codeword, ...], ...], start: int = 0, stop: int | None = None):
        self.codes = codes
        self.start = start
        self.stop = math.prod(map(len, codes)) if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index: slice) -> ProductCodewords:
        lo, hi, step = slice.indices(index, len(self))
        if step != 1:
            raise ValueError("codeword slices must be contiguous (step 1)")
        return ProductCodewords(self.codes, self.start + lo, self.start + max(lo, hi))

    def __iter__(self) -> Iterator[Codeword]:
        left = len(self)
        if not left:
            return
        *head, last = self.codes or (((),),)
        row, col = divmod(self.start, len(last))
        for parts in itertools.islice(itertools.product(*head), row, None):
            prefix = tuple(itertools.chain.from_iterable(parts))
            cws = last[col : col + left]
            for cw in cws:
                yield prefix + cw
            left -= len(cws)
            if not left:
                return
            col = 0


class CoveringCode:
    """The product of block codes whose radii add (built by product_code).

    Stores the graph, the codewords (ProductCodewords of the block codes) and
    each block's radius; n, radius, blocks and block_code_sizes derive from them.
    """

    __slots__ = ("graph", "codewords", "per_block_radius")

    def __init__(self, graph: ColorGraph, codewords: ProductCodewords, per_block_radius: tuple[int, ...]):
        self.graph, self.codewords, self.per_block_radius = graph, codewords, per_block_radius

    blocks = property(lambda self: tuple(len(code[0]) for code in self.codewords.codes))
    n = property(lambda self: sum(self.blocks))
    radius = property(lambda self: sum(self.per_block_radius))
    block_code_sizes = property(lambda self: tuple(map(len, self.codewords.codes)))

    def __repr__(self) -> str:
        return (f"CoveringCode(graph={self.graph!r}, n={self.n}, radius={self.radius}, "
                f"blocks={self.blocks}, per_block_radius={self.per_block_radius}, "
                f"block_code_sizes={self.block_code_sizes})")


def _dual_uniform(g: ColorGraph) -> bool:
    """True when every color sees the same distance counts looking inward.

    Vertex-transitive graphs have uniform profiles in both directions. The
    greedy size guarantee averages over dual balls, and the dual-ball tables
    of the fast gain update relabel one offset set per point, so both need
    this to hold.
    """
    return len({tuple(sorted(col)) for col in zip(*g.distances)}) == 1


def _index_to_point(idx: int, n: int, d: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        digits.append(idx % d)
        idx //= d
    return tuple(dig + 1 for dig in reversed(digits))


def _ball_indices(rows: Sequence[Sequence[int]], r: int) -> list[int]:
    """Increasing lexicographic indices of the points y with sum_i rows[i][y_i - 1] <= r:
    the radius-r ball of a center when rows[i] are the distances from its i-th color."""
    ball = [(0, 0)]
    for row in rows:
        ball = [(idx * len(row) + j, t + x) for idx, t in ball for j, x in enumerate(row) if t + x <= r]
    return [idx for idx, _ in ball]


def _ball_tables(order: Sequence[Sequence[int]], ranks: Sequence[Sequence[int]], d: int) -> list:
    """Point-index contributions of a rank-offset ball relabeled around every color.

    order[c][j] is the (j+1)-th nearest color to (or from) color c + 1, both
    0-based, and ranks[i] holds coordinate i's 1-based rank for every offset
    of the ball. Entry [i][c] is coordinate i's share of the point index of
    every offset when its color is c + 1; _ball sums them around a point.
    """
    n = len(ranks)
    return [[[row[j - 1] * d ** (n - 1 - i) for j in ranks[i]] for row in order] for i in range(n)]


def _ball(tables: list, point: Sequence[int]):
    """Point indices of the ball around `point`, offset by offset."""
    return map(sum, zip(*[table[c - 1] for table, c in zip(tables, point)]))


def _check_cover_by_balls(g: ColorGraph, n: int, r: int, code: Sequence[Codeword]) -> None:
    """Raise RuntimeError unless the radius-r balls of `code` cover [g.d]^n.

    Marks every codeword's ball, enumerated from g.distances alone, so the
    check shares no table with the greedy that built the code. Coverage of
    every block proves coverage of the product code, by additivity of the
    product distance.
    """
    covered = bytearray(g.d**n)
    for cw in code:
        for idx in _ball_indices([g.distances[c - 1] for c in cw], r):
            covered[idx] = 1
    if covered.find(0) >= 0:
        missing = _index_to_point(covered.find(0), n, g.d)
        raise RuntimeError(f"block code leaves {missing} outside every radius-{r} ball")


class BlockPicks:
    """The greedy cover of [d]^n by radius-r balls, its picks made on demand.

    Iterating makes each pick when it is first reached and keeps it, so the
    first j picks cost the gain updates of j - 1 picks (pick 0 costs none).
    code() makes the remaining picks and checks the finished code once.
    """

    def __init__(self, g: ColorGraph, n: int, r: int):
        self.g, self.n, self.r = g, n, r
        self.picks: list[Codeword] = []
        self._greedy = self._make_picks()
        self._code: tuple[Codeword, ...] | None = None

    def __iter__(self) -> Iterator[Codeword]:
        for j in itertools.count():
            if j == len(self.picks):
                pick = next(self._greedy, None)
                if pick is None:
                    return
                self.picks.append(pick)
            yield self.picks[j]

    def code(self) -> tuple[Codeword, ...]:
        """Every pick, once checked to cover the block within the size guarantee.

        The checks raise, so they also run under python -O.
        """
        if self._code is not None:
            return self._code
        g, n, r, d = self.g, self.n, self.r, self.g.d
        self.picks.extend(self._greedy)
        _check_cover_by_balls(g, n, r, self.picks)
        vol = ball_volume(profile(g), n, r)
        bound = (1 + math.log(d**n)) * d**n / vol
        if _dual_uniform(g) and len(self.picks) > bound + 1e-9:
            raise RuntimeError(f"greedy exceeded its guarantee: {len(self.picks)} > {bound}")
        self._code = tuple(self.picks)
        return self._code

    def _make_picks(self) -> Iterator[Codeword]:
        """The incremental greedy on plain lists.

        Each pick is yielded before its gain update, which runs when the next
        pick is asked for. The centers whose balls hold a newly covered point
        are its inward ball: the ball's rank offsets relabeled inward when the
        dual profiles are uniform, else enumerated from the point's own
        distance columns. Gains only fall, so `gain` bounds them all and no
        center before `start` reaches it: each scan for the first center at
        `gain` resumes there.
        """
        g, n, r, d = self.g, self.n, self.r, self.g.d
        rows = g.distances
        cols = tuple(zip(*rows))
        # 1-based rank offsets of the ball: ranks into color 1's sorted distance row
        offsets = _ball_indices([sorted(rows[0])] * n, r)
        vol = len(offsets)
        ranks = tuple(zip(*(_index_to_point(o, n, d) for o in offsets)))
        ball_tables = _ball_tables([sorted(range(d), key=row.__getitem__) for row in rows], ranks, d)
        dual_tables = None
        if _dual_uniform(g):
            dual_tables = _ball_tables([sorted(range(d), key=col.__getitem__) for col in cols], ranks, d)
        uncovered = bytearray(b"\1") * d**n
        gains = [vol] * d**n
        remaining, gain, start = d**n, vol, 0
        while True:
            if gain <= 0:
                raise RuntimeError("greedy cover found no center covering an uncovered point")
            try:
                start = gains.index(gain, start)
            except ValueError:
                gain, start = gain - 1, 0
                continue
            pick = _index_to_point(start, n, d)
            yield pick
            newly = [x for x in _ball(ball_tables, pick) if uncovered[x]]
            if len(newly) != gain:
                raise RuntimeError(f"greedy gain {gain} but {len(newly)} points newly covered")
            remaining -= gain
            if not remaining:
                return
            for x in newly:
                uncovered[x] = 0
                point = _index_to_point(x, n, d)
                holders = (_ball(dual_tables, point) if dual_tables is not None
                           else _ball_indices([cols[c - 1] for c in point], r))
                for holder in holders:
                    gains[holder] -= 1


# the one code cache: a greedy per block and effective radius, shared by
# build_code and first_row until build_code.cache_clear()
_shared_picks = lru_cache(maxsize=None)(BlockPicks)


def greedy_cover(g: ColorGraph, n_block: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Greedy set cover of [d]^n_block by radius-r balls.

    Repeatedly picks the center whose ball covers the most uncovered points,
    ties broken toward the lexicographically smallest center. Every ball is
    one set of rank offsets (sum of sorted row distances at most r) relabeled
    per coordinate by the center's colors, since all colors share one
    distance profile. Each pick subtracts its newly covered points from the
    gains of the centers whose balls hold them: the same offsets relabeled
    inward when the dual profiles are uniform too, else each point's inward
    ball enumerated from the distance columns. A disconnected graph, or a
    block over _MAX_GAIN_UPDATES gain updates, d^n_block * Vol, is a
    ValueError before any pick. The finished code is checked to cover the
    block, and, when the dual profiles are uniform, its size against the
    (1 + ln d^n_block) * d^n_block / Vol guarantee. The picks come from the
    code cache that build_code and first_row share.
    """
    if n_block < 0:
        raise ValueError("n must be nonnegative")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    p = profile(g)
    if not p.spans_all_colors:
        raise ValueError(f"graph {g.name!r} is disconnected; no finite covering radius")
    r = min(r, p.s * n_block)
    updates = g.d**n_block * ball_volume(p, n_block, r)
    if updates > _MAX_GAIN_UPDATES:
        raise ValueError(f"block {g.d}^{n_block} at radius {r} needs {updates} gain updates, "
                         f"over the budget of {_MAX_GAIN_UPDATES}")
    if n_block == 0:
        return ((),)
    return _shared_picks(g, n_block, r).code()


def product_code(
    g: ColorGraph, block_codes: Sequence[tuple[Sequence[tuple[int, ...]], int]]
) -> CoveringCode:
    """Assemble per-block codes into a code on the concatenated coordinates.

    Codewords are all concatenations (Cartesian product, blocks in order),
    held lazily as ProductCodewords; the covering radius is the sum of the
    block radii, by additivity of the product distance. The one check of
    block codes: each has codewords, and they share one width of at least 1.
    """
    for code, _ in block_codes:
        if not code or not code[0]:  # no codeword, or codewords of no coordinate
            raise ValueError("empty block code")
        if len({len(cw) for cw in code}) != 1:
            raise ValueError("block codewords must share one length")
    return CoveringCode(
        g,
        ProductCodewords(tuple(tuple(map(tuple, code)) for code, _ in block_codes)),
        tuple(radius for _, radius in block_codes),
    )


def plan_blocks(
    g: ColorGraph, n: int, k: int, block_cap: int | None = None
) -> tuple[tuple[int, int], ...]:
    """The (size, radius) of each block of build_code(g, n, k, block_cap), in order.

    Each size b gets the radius r_b that select_radius picks for
    x = 1/(k * delta). The largest block size is the largest b <= n whose
    ground set d^b fits under block_cap (None: no cap) and whose greedy
    makes at most _MAX_GAIN_UPDATES gain updates, d^b * Vol(b, r_b). n is
    split into the fewest blocks of at most that size, larger blocks first.
    This is the one check of the plan: a graph that does not connect every
    color to every other is a ValueError for n > 0, since no radius covers
    it, and build_code and first_row cover the blocks as planned.
    """
    p = profile(g)
    if p.delta < 1:
        raise ValueError("graph must have at least one outgoing edge per color")
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ()
    # Vol >= 1, so no block over the budget in points fits it in gain updates
    ceiling = _MAX_GAIN_UPDATES if block_cap is None else min(block_cap, _MAX_GAIN_UPDATES)
    radii: dict[int, int] = {}
    max_block, size = 0, 1
    while size <= n and g.d**size <= ceiling:
        radii[size] = select_radius(p, size, 1, k * p.delta)
        if g.d**size * ball_volume(p, size, radii[size]) <= _MAX_GAIN_UPDATES:
            max_block = size
        size += 1
    if max_block == 0:
        raise ValueError(f"block cap {block_cap} and {_MAX_GAIN_UPDATES} gain updates "
                         f"cannot fit a single color axis (d={g.d})")
    if not p.spans_all_colors:
        raise ValueError(f"graph {g.name!r} is disconnected; no finite covering radius")
    b = -(-n // max_block)
    base, extra = divmod(n, b)
    sizes = [base + 1] * extra + [base] * (b - extra)
    return tuple((size, radii[size]) for size in sizes)


def first_row(
    g: ColorGraph, n: int, k: int, block_cap: int | None = None
) -> tuple[int, Iterator[Codeword]]:
    """The radius of build_code(g, n, k, block_cap) and its codewords 0..|C_B|-1, made on demand.

    Codeword j is (C_1[0], ..., C_{B-1}[0], C_B[j]), as in ProductCodewords;
    pick j of the last block's greedy is made when the iterator reaches it.
    build_code finishes and checks the same picks; nothing here checks them.
    """
    blocks = plan_blocks(g, n, k, block_cap)
    picks = [_shared_picks(g, size, r) for size, r in blocks]
    *head, last = picks or [((),)]  # n = 0: one block of the empty codeword
    prefix = tuple(itertools.chain.from_iterable(next(iter(block)) for block in head))
    return sum(r for _, r in blocks), (prefix + cw for cw in last)


def build_code(g: ColorGraph, n: int, k: int, block_cap: int | None = None) -> CoveringCode:
    """Covering code for [d]^n tuned to width-k constraints.

    Covers each distinct block of plan_blocks once, takes the product and
    checks it against the counting bound. Deterministic: identical inputs
    give identical codeword sequences. The code itself is not cached; its
    block picks are, until build_code.cache_clear().
    """
    blocks = plan_blocks(g, n, k, block_cap)
    codes = {block: greedy_cover(g, *block) for block in sorted(set(blocks))}
    code = product_code(g, [(codes[block], block[1]) for block in blocks])
    vol = ball_volume(profile(g), n, code.radius)
    if len(code.codewords) * vol < g.d**n:
        raise RuntimeError("covering-code counting bound violated")
    return code


# forget every block's picks, as a fresh process would
build_code.cache_clear = _shared_picks.cache_clear


def format_code_file(code: CoveringCode) -> Iterator[str]:
    """Text form: "code <d> <n> <r> <count>" header, one codeword per line.

    Yields the header, then the lines in ProductCodewords order in chunks of
    2^12, each line joined from one pre-formatted codeword per block.
    """
    yield f"code {code.graph.d} {code.n} {code.radius} {len(code.codewords)}\n"
    blocks = [[" ".join(map(str, cw)) for cw in block] for block in code.codewords.codes]
    lines = map(" ".join, itertools.product(*blocks))
    while chunk := list(itertools.islice(lines, 1 << 12)):
        yield "\n".join(chunk) + "\n"
