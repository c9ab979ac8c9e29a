"""Exact shell counts, ball volumes, radius selection, and volume bounds.

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
    "lower_bound",
    "select_radius",
    "shell_counts",
    "upper_bound",
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


def _gf(p: DistanceProfile, x: Fraction) -> Fraction:
    """The per-coordinate generating function sum_i d_i x^i."""
    return sum(d_i * x**i for i, d_i in enumerate(p.counts))


def lower_bound(p: DistanceProfile, n: int, x: Rational) -> tuple[int, Fraction]:
    """Radius r and (sum_i d_i x^i)^n / ((s*n+1) x^r), a lower bound on Vol(n,r).

    The expansion of the generating function has s*n + 1 terms T(n,j) x^j;
    at the radius chosen by select_radius the largest of them is at least
    their mean. x = 0 degenerates to r = 0.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be nonnegative")
    terms = p.s * n + 1
    if x == 0:
        return 0, Fraction(1, terms)
    r = select_radius(p, n, x)
    return r, _gf(p, x) ** n / (terms * x**r)


def upper_bound(p: DistanceProfile, n: int, r: int, x: Rational) -> Fraction:
    """(sum_i d_i x^i)^n / x^r, an upper bound on Vol(n,r) for any x in [0,1]."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if x == 0:
        if r > 0:
            raise ValueError("x = 0 is only valid for r = 0")
        return Fraction(1)
    return _gf(p, x) ** n / x**r
