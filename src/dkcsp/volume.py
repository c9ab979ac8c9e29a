"""Exact shell counts, ball volumes and radius selection.

T(n,r) counts assignments at product distance exactly r from a fixed center;
it obeys T(n,r) = sum_i d_i * T(n-1, r-i) over the distance profile
(d_0..d_s), equivalently sum_r T(n,r) x^r = (sum_i d_i x^i)^n. Everything
here is exact integer/rational arithmetic; callers convert to float only for
display.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .colorgraph import DistanceProfile

__all__ = [
    "ShellTable",
    "ball_volume",
    "select_radius",
    "shell_counts",
]

Rational = Union[Fraction, int]


@dataclass(frozen=True)
class ShellTable:
    """Exact counts T(n, 0..s*n) of points on each distance shell."""

    profile: DistanceProfile
    n: int
    counts: tuple[int, ...]

    def volume(self, r: int) -> int:
        """Number of points at distance <= r (saturates at the reachable total)."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        return sum(self.counts[: r + 1])


@lru_cache(maxsize=None)
def shell_counts(p: DistanceProfile, n: int) -> ShellTable:
    """Dynamic program over the shell recurrence; exact big integers."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = [1]
    for _ in range(n):
        nxt = [0] * (len(counts) + p.s)
        for r, t in enumerate(counts):
            if t == 0:
                continue
            for i, d_i in enumerate(p.counts):
                nxt[r + i] += d_i * t
        counts = nxt
    if p.spans_all_colors and sum(counts) != p.d**n:
        raise RuntimeError(f"shell counts sum to {sum(counts)}, not {p.d}^{n}")
    return ShellTable(p, n, tuple(counts))


def ball_volume(p: DistanceProfile, n: int, r: int) -> int:
    """Volume of a radius-r ball in the n-fold product; d^n once r >= s*n."""
    return shell_counts(p, n).volume(r)


def select_radius(p: DistanceProfile, n: int, x: Rational) -> int:
    """The radius maximizing T(n,r) * x^r, ties broken toward smaller r.

    This is the radius at which the generating-function lower bound on the
    ball volume is tight enough for the covering-code construction.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    counts = shell_counts(p, n).counts
    best_r = 0
    best_score = Fraction(counts[0])
    power = Fraction(1)
    for r in range(1, len(counts)):
        power *= x
        score = counts[r] * power
        if score > best_score:
            best_score = score
            best_r = r
    return best_r
