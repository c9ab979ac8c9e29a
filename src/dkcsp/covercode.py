"""Deterministic covering codes for product-graph balls.

A covering code of radius r is a set of assignments whose radius-r balls
cover all of [d]^n. Construction: split the n coordinates into blocks small
enough to enumerate, run greedy set cover over each block's ground set with
balls as candidate sets, and take the Cartesian product of the block codes
(radii add across blocks).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .colorgraph import ColorGraph, profile
from .volume import ball_volume, select_radius

__all__ = [
    "DEFAULT_BLOCK_CAP",
    "DEFAULT_VERIFY_CAP",
    "CoveringCode",
    "build_code",
    "first_uncovered",
    "format_code_file",
    "greedy_cover",
    "product_code",
    "verify_cover",
]

DEFAULT_BLOCK_CAP = 1 << 20
DEFAULT_VERIFY_CAP = 10**6

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CoveringCode:
    graph: ColorGraph
    n: int
    radius: int
    codewords: tuple[tuple[int, ...], ...]
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

    Vertex-transitive graphs have uniform profiles in both directions; the
    greedy size guarantee averages over dual balls, so it is only claimed
    when this holds.
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


def greedy_cover(
    g: ColorGraph, n_block: int, r: int, cap: int = DEFAULT_BLOCK_CAP
) -> tuple[tuple[int, ...], ...]:
    """Greedy set cover of [d]^n_block by radius-r balls.

    Repeatedly picks the center whose ball covers the most uncovered points,
    ties broken toward the lexicographically smallest center. The result size
    is checked against the (1 + ln d^n_block) * d^n_block / Vol guarantee.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    p = profile(g)
    if not p.spans_all_colors:
        raise ValueError(f"graph {g.name!r} is disconnected; no finite covering radius")
    size = g.d**n_block
    if size > cap:
        raise ValueError(f"block ground set {g.d}^{n_block} exceeds cap {cap}")
    if n_block == 0:
        return ((),)
    mat = _finite_distance_matrix(g)
    r_eff = min(r, p.s * n_block)
    uncovered = np.ones(size, dtype=np.int64)
    code: list[tuple[int, ...]] = []
    while uncovered.any():
        gains = _coverage_gains(mat, n_block, g.d, r_eff, uncovered)
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            raise RuntimeError("greedy cover found no center covering an uncovered point")
        center = _index_to_point(best, n_block, g.d)
        code.append(center)
        uncovered[_dist_from_center(mat, center) <= r_eff] = 0
    vol = ball_volume(p, n_block, r)
    bound = (1 + math.log(size)) * size / vol
    if _dual_profiles_uniform(mat):
        if len(code) > bound + 1e-9:
            raise RuntimeError(f"greedy exceeded its guarantee: {len(code)} > {bound}")
    else:
        log.debug("skipping greedy size guarantee: dual profiles not uniform")
    log.debug("greedy cover d=%d n=%d r=%d: %d codewords (bound %.1f)", g.d, n_block, r, len(code), bound)
    return tuple(code)


def product_code(
    g: ColorGraph, block_codes: Sequence[tuple[Sequence[tuple[int, ...]], int]]
) -> CoveringCode:
    """Assemble per-block codes into a code on the concatenated coordinates.

    Codewords are all concatenations (Cartesian product, blocks in order);
    the covering radius is the sum of the block radii, by additivity of the
    product distance.
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
    codewords = tuple(
        tuple(itertools.chain.from_iterable(parts))
        for parts in itertools.product(*(code for code, _ in block_codes))
    )
    return CoveringCode(
        graph=g,
        n=sum(blocks),
        radius=sum(radii),
        codewords=codewords,
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
    if n == 0:
        return CoveringCode(g, 0, 0, ((),), (), (), ())
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


def first_uncovered(code: CoveringCode, cap: int = DEFAULT_VERIFY_CAP) -> Optional[tuple[int, ...]]:
    """Exhaustively look for a point outside every codeword ball; None if covered."""
    size = code.graph.d**code.n
    if size > cap:
        raise ValueError(f"verification space {code.graph.d}^{code.n} exceeds cap {cap}")
    mat = _finite_distance_matrix(code.graph)
    covered = np.zeros(size, dtype=bool)
    for cw in code.codewords:
        covered |= _dist_from_center(mat, cw) <= code.radius
        if covered.all():
            return None
    idx = int(np.argmin(covered))
    return _index_to_point(idx, code.n, code.graph.d)


def verify_cover(code: CoveringCode, cap: int = DEFAULT_VERIFY_CAP) -> bool:
    """True iff every point of [d]^n is within the code radius of some codeword."""
    return first_uncovered(code, cap) is None


def format_code_file(code: CoveringCode) -> str:
    """Text form: "code <d> <n> <r> <count>" header, one codeword per line."""
    lines = [f"code {code.graph.d} {code.n} {code.radius} {len(code.codewords)}"]
    for cw in code.codewords:
        lines.append(" ".join(str(c) for c in cw))
    return "\n".join(lines) + "\n"
