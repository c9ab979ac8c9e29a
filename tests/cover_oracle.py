"""Exhaustive coverage oracle for covering codes, used by the tests only."""

from typing import Optional

import numpy as np

from dkcsp.covercode import CoveringCode, _finite_distance_matrix, _index_to_point

DEFAULT_VERIFY_CAP = 10**6


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
    mat = _finite_distance_matrix(code.graph)
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
