"""Deterministic covering codes for product-graph balls.

A covering code of radius r is a set of assignments whose radius-r balls
cover all of [d]^n. Construction: split the n coordinates into blocks small
enough to enumerate, run greedy set cover over each block's ground set with
balls as candidate sets, and take the Cartesian product of the block codes
(radii add across blocks).

The greedy keeps every center's gain (uncovered points in its ball) and
updates it incrementally: all balls are one offset set relabeled per center,
so each pick subtracts its newly covered points from the gains of the
centers whose balls hold them. Each finished block code is checked to cover
its block with one transfer-DP pass, which by additivity proves coverage of
the product; the check raises, so it also runs under python -O.

The product itself is never materialised: ProductCodewords is a read-only
sequence over the block codes, and a contiguous slice of it is the same
block codes plus an index range, decoded in mixed radix when iterated.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .colorgraph import ColorGraph, profile
from .volume import ball_volume, select_radius

__all__ = [
    "DEFAULT_BLOCK_CAP",
    "CoveringCode",
    "ProductCodewords",
    "build_code",
    "format_code_file",
    "greedy_cover",
    "product_code",
]

DEFAULT_BLOCK_CAP = 1 << 20
# (newly covered point, dual-ball center) pairs one gain update holds at once
_UPDATE_PAIRS = 1 << 20

log = logging.getLogger(__name__)

Codeword = tuple[int, ...]


class ProductCodewords(Sequence):
    """The codewords [start, stop) of the Cartesian product of block codes.

    Codeword i concatenates one codeword per block, in itertools.product
    order (the last block varies fastest), so i is a mixed-radix number with
    one digit per block. Integer indexing decodes one index; a contiguous
    slice is the same block codes with a narrower range, and pickles as
    such. Iterating decodes start once and then steps through the range.
    """

    __slots__ = ("codes", "start", "stop")

    def __init__(self, codes: tuple[tuple[Codeword, ...], ...], start: int = 0, stop: int | None = None):
        self.codes = codes
        self.start = start
        self.stop = math.prod(map(len, codes)) if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step != 1:
                raise ValueError("codeword slices must be contiguous (step 1)")
            return ProductCodewords(self.codes, self.start + lo, self.start + max(lo, hi))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("codeword index out of range")
        return next(iter(self[i : i + 1]))

    def _digits(self, index: int) -> list[int]:
        digits = []
        for code in reversed(self.codes):
            index, digit = divmod(index, len(code))
            digits.append(digit)
        return digits[::-1]

    def __iter__(self) -> Iterator[Codeword]:
        left = len(self)
        if not left:
            return
        if not self.codes:
            yield ()
            return
        *head, last = self.codes
        digits = self._digits(self.start)
        while True:
            prefix = tuple(itertools.chain.from_iterable(
                code[digit] for code, digit in zip(head, digits)))
            row = last[digits[-1] : digits[-1] + left]
            for cw in row:
                yield prefix + cw
            left -= len(row)
            if not left:
                return
            # odometer step over the head blocks; the last block restarts at 0
            digits[-1] = 0
            i = len(head) - 1
            while digits[i] == len(head[i]) - 1:
                digits[i] = 0
                i -= 1
            digits[i] += 1

    def __reduce__(self):
        return ProductCodewords, (self.codes, self.start, self.stop)


@dataclass(frozen=True)
class CoveringCode:
    graph: ColorGraph
    n: int
    radius: int
    codewords: Sequence[Codeword]
    blocks: tuple[int, ...]
    per_block_radius: tuple[int, ...]
    block_code_sizes: tuple[int, ...]

    def __post_init__(self):
        if self.radius != sum(self.per_block_radius):
            raise ValueError("code radius must be the sum of the per-block radii")
        if self.n != sum(self.blocks):
            raise ValueError("block sizes must partition the coordinates")


def _finite_distance_matrix(g: ColorGraph) -> np.ndarray:
    rows = g.distances
    if any(x is None for row in rows for x in row):
        raise ValueError(f"graph {g.name!r} is not strongly connected")
    return np.array(rows, dtype=np.int64)


def _dual_profiles_uniform(mat: np.ndarray) -> bool:
    """True when every color sees the same distance counts looking inward.

    Vertex-transitive graphs have uniform profiles in both directions. The
    greedy size guarantee averages over dual balls, and the incremental gain
    update relabels one dual ball per point, so both need this to hold.
    """
    profiles = set()
    for dst in range(mat.shape[0]):
        col = mat[:, dst]
        profiles.add(tuple(sorted(col.tolist())))
    return len(profiles) == 1


def _index_to_point(idx: int, n: int, d: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        digits.append(idx % d)
        idx //= d
    return tuple(dig + 1 for dig in reversed(digits))


def _dist_from_center(mat: np.ndarray, center: Sequence[int]) -> np.ndarray:
    """Distances from `center` to every point of [d]^len(center), in lexicographic order."""
    z = np.zeros(1, dtype=np.int64)
    for c in center:
        z = (z[:, None] + mat[c - 1][None, :]).ravel()
    return z


def _coverage_gains(mat: np.ndarray, n: int, d: int, r: int, weights: np.ndarray) -> np.ndarray:
    """For every candidate center a, the total weight of points within distance r of a.

    Transfer DP over coordinates: carry, per point, a degree-truncated count
    vector indexed by accumulated distance (degrees above r are dropped).
    Each step converts one coordinate from point-space to center-space.
    """
    size = d**n
    cap = r + 1
    q = np.zeros((size, cap), dtype=np.int64)
    q[:, 0] = weights
    for coord in range(n):
        view = q.reshape(d**coord, d, d ** (n - 1 - coord), cap)
        nxt = np.zeros_like(view)
        for ca in range(d):
            for cb in range(d):
                m = int(mat[ca, cb])
                if m < cap:
                    nxt[:, ca, :, m:] += view[:, cb, :, : cap - m]
        q = nxt.reshape(size, cap)
    return q.sum(axis=1)


def _ball_tables(perm: np.ndarray, ranks: tuple[np.ndarray, ...], d: int) -> np.ndarray:
    """Point-index contributions of a rank-offset ball relabeled around every color.

    perm[c, j] is the j-th nearest color to (or from) color c, and ranks[i]
    holds coordinate i's rank for every offset of the ball. Entry [i, c] is
    coordinate i's share of the point index of every offset when that
    coordinate's color is c, so the ball around x is sum_i tables[i, x_i].
    """
    n = len(ranks)
    return np.stack([perm[:, ranks[i]] * d ** (n - 1 - i) for i in range(n)])


def _check_block_cover(
    mat: np.ndarray, n: int, d: int, r: int, code: Sequence[Codeword]
) -> None:
    """Raise RuntimeError unless the radius-r balls of `code` cover [d]^n.

    One transfer-DP pass over the reversed distances counts, for every point,
    the codewords within distance r of it. Coverage of every block proves
    coverage of the product code, by additivity of the product distance.
    """
    indicator = np.zeros(d**n, dtype=np.int64)
    indicator[np.ravel_multi_index(tuple(np.array(code).T - 1), (d,) * n)] = 1
    counts = _coverage_gains(mat.T, n, d, r, indicator)
    if not counts.all():
        missing = _index_to_point(int(np.argmin(counts)), n, d)
        raise RuntimeError(f"block code leaves {missing} outside every radius-{r} ball")


def greedy_cover(
    g: ColorGraph, n_block: int, r: int, cap: int = DEFAULT_BLOCK_CAP
) -> tuple[tuple[int, ...], ...]:
    """Greedy set cover of [d]^n_block by radius-r balls.

    Repeatedly picks the center whose ball covers the most uncovered points,
    ties broken toward the lexicographically smallest center. Every ball is
    one set of rank offsets (sum of sorted row distances at most r) relabeled
    per coordinate by the center's colors, since all colors share one
    distance profile. When the dual profiles are uniform too, the centers
    whose balls hold a point are the same offsets relabeled inward, and each
    pick subtracts its newly covered points from the gains through those
    dual balls; otherwise the gains are recounted by the transfer DP after
    every pick. The gains are exact integers either way. The finished code
    is checked to cover the block, and its size against the
    (1 + ln d^n_block) * d^n_block / Vol guarantee.
    """
    if n_block < 0:
        raise ValueError("n must be nonnegative")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    p = profile(g)
    if not p.spans_all_colors:
        raise ValueError(f"graph {g.name!r} is disconnected; no finite covering radius")
    d = g.d
    size = d**n_block
    if size > cap:
        raise ValueError(f"block ground set {d}^{n_block} exceeds cap {cap}")
    if n_block == 0:
        return ((),)
    mat = _finite_distance_matrix(g)
    r_eff = min(r, p.s * n_block)
    shape = (d,) * n_block
    # rank offsets of the ball: distances from color 1 with each row sorted
    ranks = np.unravel_index(
        np.flatnonzero(_dist_from_center(np.sort(mat, axis=1), (1,) * n_block) <= r_eff), shape
    )
    ball_tables = _ball_tables(np.argsort(mat, axis=1, kind="stable"), ranks, d)
    dual_uniform = _dual_profiles_uniform(mat)
    if dual_uniform:
        dual_tables = _ball_tables(np.argsort(mat.T, axis=1, kind="stable"), ranks, d)
        slice_len = max(1, _UPDATE_PAIRS // ranks[0].size)
    coords = np.arange(n_block)
    uncovered = np.ones(size, dtype=bool)
    remaining = size
    gains = np.full(size, ranks[0].size, dtype=np.int64)
    code: list[tuple[int, ...]] = []
    while remaining:
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            raise RuntimeError("greedy cover found no center covering an uncovered point")
        code.append(_index_to_point(best, n_block, d))
        ball = ball_tables[coords, np.unravel_index(best, shape)].sum(axis=0)
        newly = ball[uncovered[ball]]
        if newly.size != gains[best]:
            raise RuntimeError(f"greedy gain {gains[best]} but {newly.size} points newly covered")
        uncovered[newly] = False
        remaining -= newly.size
        if not dual_uniform:
            gains = _coverage_gains(mat, n_block, d, r_eff, uncovered)
            continue
        for lo in range(0, newly.size, slice_len):
            digits = np.unravel_index(newly[lo : lo + slice_len], shape)
            holders = dual_tables[0, digits[0]]
            for i in range(1, n_block):
                holders += dual_tables[i, digits[i]]
            gains -= np.bincount(holders.ravel(), minlength=size)
    _check_block_cover(mat, n_block, d, r_eff, code)
    vol = ball_volume(p, n_block, r)
    bound = (1 + math.log(size)) * size / vol
    if dual_uniform:
        if len(code) > bound + 1e-9:
            raise RuntimeError(f"greedy exceeded its guarantee: {len(code)} > {bound}")
    else:
        log.debug("skipping greedy size guarantee: dual profiles not uniform")
    log.debug("greedy cover d=%d n=%d r=%d: %d codewords (bound %.1f)", d, n_block, r, len(code), bound)
    return tuple(code)


def product_code(
    g: ColorGraph, block_codes: Sequence[tuple[Sequence[tuple[int, ...]], int]]
) -> CoveringCode:
    """Assemble per-block codes into a code on the concatenated coordinates.

    Codewords are all concatenations (Cartesian product, blocks in order),
    held lazily as ProductCodewords; the covering radius is the sum of the
    block radii, by additivity of the product distance.
    """
    blocks = []
    radii = []
    for code, radius in block_codes:
        if not code:
            raise ValueError("empty block code")
        widths = {len(cw) for cw in code}
        if len(widths) != 1:
            raise ValueError("block codewords must share one length")
        blocks.append(widths.pop())
        radii.append(radius)
    return CoveringCode(
        graph=g,
        n=sum(blocks),
        radius=sum(radii),
        codewords=ProductCodewords(tuple(tuple(map(tuple, code)) for code, _ in block_codes)),
        blocks=tuple(blocks),
        per_block_radius=tuple(radii),
        block_code_sizes=tuple(len(code) for code, _ in block_codes),
    )


@lru_cache(maxsize=None)
def build_code(g: ColorGraph, n: int, k: int, block_cap: int = DEFAULT_BLOCK_CAP) -> CoveringCode:
    """Covering code for [d]^n tuned to width-k constraints.

    Uses x = 1/(k * delta) to select the per-block radius, splits n into the
    fewest blocks whose ground sets fit under block_cap, and reuses the
    greedy cover across blocks of equal size. Deterministic: identical inputs
    give identical codeword sequences (results are cached).
    """
    p = profile(g)
    if p.delta < 1:
        raise ValueError("graph must have at least one outgoing edge per color")
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return product_code(g, [])
    max_block = 0
    space = 1
    while space * g.d <= block_cap:
        space *= g.d
        max_block += 1
    if max_block == 0:
        raise ValueError(f"block cap {block_cap} cannot fit a single color axis (d={g.d})")
    b = -(-n // max_block)
    base, extra = divmod(n, b)
    sizes = [base + 1] * extra + [base] * (b - extra)
    x = Fraction(1, k * p.delta)
    per_size: dict[int, tuple[tuple[tuple[int, ...], ...], int]] = {}
    for size in sorted(set(sizes)):
        r_block = select_radius(p, size, x)
        per_size[size] = (greedy_cover(g, size, r_block, cap=block_cap), r_block)
    code = product_code(g, [per_size[size] for size in sizes])
    vol = ball_volume(p, n, code.radius)
    if len(code.codewords) * vol < g.d**n:
        raise RuntimeError("covering-code counting bound violated")
    log.debug(
        "code d=%d n=%d k=%d: %d blocks, radius %d, %d codewords",
        g.d, n, k, len(sizes), code.radius, len(code.codewords),
    )
    return code


def format_code_file(code: CoveringCode) -> str:
    """Text form: "code <d> <n> <r> <count>" header, one codeword per line."""
    lines = [f"code {code.graph.d} {code.n} {code.radius} {len(code.codewords)}"]
    for cw in code.codewords:
        lines.append(" ".join(str(c) for c in cw))
    return "\n".join(lines) + "\n"
