"""Exact shell counts, ball volumes and radius selection.

T(n,r) counts assignments at product distance exactly r from a fixed center;
it obeys T(n,r) = sum_i d_i * T(n-1, r-i) over the distance profile
(d_0..d_s), equivalently sum_r T(n,r) x^r = (sum_i d_i x^i)^n. Everything
here is exact integer arithmetic, x = a/b included, which select_radius
takes as its two integers; callers convert to float only for display.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .colorgraph import DistanceProfile
__all__ = [
    "ball_volume",
    "select_radius",
    "shell_counts",
]


@lru_cache(maxsize=None)
def shell_counts(p: DistanceProfile, n: int, top: Optional[int] = None) -> tuple[int, ...]:
    """The exact counts T(n, 0..s*n) of points on each distance shell, or
    T(n, 0..min(top, s*n)) when top is given.

    A dynamic program over the shell recurrence, in exact big integers; a
    shell r <= top needs only the shells up to r, so its work is bounded by
    top. Cached per (profile, n, top), so equal profiles share one tuple.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if top is not None and top < 0:
        raise ValueError("radius must be nonnegative")
    last = p.s * n if top is None else min(top, p.s * n)
    counts = [1]
    for _ in range(n):
        nxt = [0] * min(len(counts) + p.s, last + 1)
        for r, t in enumerate(counts):
            for i, d_i in enumerate(p.counts[: len(nxt) - r]):
                nxt[r + i] += d_i * t
        counts = nxt
    if top is None and p.spans_all_colors and sum(counts) != p.d**n:
        raise RuntimeError(f"shell counts sum to {sum(counts)}, not {p.d}^{n}")
    return tuple(counts)


def ball_volume(p: DistanceProfile, n: int, r: int) -> int:
    """Volume of a radius-r ball in the n-fold product; d^n once r >= s*n."""
    counts = shell_counts(p, n)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return sum(counts[: r + 1])


def select_radius(p: DistanceProfile, n: int, a: int, b: int) -> int:
    """The radius maximizing T(n,r) * x^r at x = a/b, ties broken toward smaller r.

    This is the radius at which the generating-function lower bound on the
    ball volume is tight enough for the covering-code construction. With R
    the largest radius, the scores times b^R are the integers
    T(n,r) a^r b^(R-r), which are compared instead.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"x = {a}/{b} needs a > 0 and b > 0")
    counts = shell_counts(p, n)
    top = len(counts) - 1
    scores = [t * a**r * b ** (top - r) for r, t in enumerate(counts)]
    return scores.index(max(scores))
