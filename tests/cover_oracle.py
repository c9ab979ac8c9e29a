"""Exhaustive coverage oracle for covering codes, used by the tests only."""

from typing import Optional

import numpy as np

from dkcsp.colorgraph import ColorGraph
from dkcsp.covercode import CoveringCode, _index_to_point

DEFAULT_VERIFY_CAP = 10**6


def finite_distance_matrix(g: ColorGraph) -> np.ndarray:
    rows = g.distances
    if any(x is None for row in rows for x in row):
        raise ValueError(f"graph {g.name!r} is not strongly connected")
    return np.array(rows, dtype=np.int64)


def coverage_gains(mat: np.ndarray, n: int, d: int, r: int, weights: np.ndarray) -> np.ndarray:
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


def dist_from_center(mat: np.ndarray, center) -> np.ndarray:
    """Distances from `center` to every point of [d]^len(center), in lexicographic order."""
    z = np.zeros(1, dtype=np.int64)
    for c in center:
        z = (z[:, None] + mat[c - 1][None, :]).ravel()
    return z


def first_uncovered(code: CoveringCode, cap: int = DEFAULT_VERIFY_CAP) -> Optional[tuple[int, ...]]:
    """Exhaustively look for a point outside every codeword ball; None if covered."""
    size = code.graph.d**code.n
    if size > cap:
        raise ValueError(f"verification space {code.graph.d}^{code.n} exceeds cap {cap}")
    mat = finite_distance_matrix(code.graph)
    covered = np.zeros(size, dtype=bool)
    for cw in code.codewords:
        covered |= dist_from_center(mat, cw) <= code.radius
        if covered.all():
            return None
    idx = int(np.argmin(covered))
    return _index_to_point(idx, code.n, code.graph.d)


def verify_cover(code: CoveringCode, cap: int = DEFAULT_VERIFY_CAP) -> bool:
    """True iff every point of [d]^n is within the code radius of some codeword."""
    return first_uncovered(code, cap) is None
