"""Closed-form running-time bases and the absorbing-walk analysis.

The solvers here run in base^n * poly(n) time for a per-variable base that
depends only on (d, k) and the color graph:

  randomized walk          d(k-1)/k
  det. search, complete    dk/(k+1)
  det. search, cycle       d(k-1)/k * k^d/(k^d - 1)
  det. search, profile p   d / sum_i d_i (k*delta)^(-i)

The complete-graph and cycle bases are the profile formula at those two
graphs; base_for_graph computes every deterministic base.

Bases are exact fractions; floats appear only in the walk analysis, which
tracks the distance to a fixed witness as a biased random walk (down 1 with
probability 1/k, up d-1 otherwise) absorbed at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .colorgraph import DistanceProfile, complete, directed_cycle, profile
from .volume import shell_counts

__all__ = [
    "BaseReport",
    "LambdaSolution",
    "base_for_graph",
    "base_report",
    "base_schoening",
    "cycle_optimality_check",
    "markov_simulate",
    "reach_probability",
    "solve_lambda",
    "success_probability_identity",
]


def _check_dk(d: int, k: int) -> None:
    if d < 2 or k < 2:
        raise ValueError(f"need d >= 2 and k >= 2, got d={d} k={k}")


def base_schoening(d: int, k: int) -> Fraction:
    """Per-variable base of the repeated random walk: d(k-1)/k."""
    _check_dk(d, k)
    return Fraction(d * (k - 1), k)


def base_for_graph(p: DistanceProfile, k: int) -> Fraction:
    """Base of the code-plus-search solver for an arbitrary profile.

    With x = 1/(k*delta): d / sum_i d_i (k*delta)^(-i). Reduces to dk/(k+1)
    for the complete graph and d(k-1)/k * k^d/(k^d - 1) for the directed
    cycle.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if p.delta < 1:
        raise ValueError("profile must have out-degree at least 1")
    denom = sum(Fraction(d_i, (k * p.delta) ** i) for i, d_i in enumerate(p.counts))
    return Fraction(p.d) / denom


def cycle_optimality_check(p: DistanceProfile, k: int) -> bool:
    """True iff the profile's base is at least the directed cycle's base.

    Holds for every accepted profile: d_i <= delta^i bounds each denominator
    term by k^(-i), which is the cycle's term. Exact rational comparison.
    """
    return base_for_graph(p, k) >= base_for_graph(profile(directed_cycle(p.d)), k)


@dataclass(frozen=True)
class BaseReport:
    d: int
    k: int
    schoening_base: Fraction
    det_complete_base: Fraction
    det_cycle_base: Fraction
    graph_base: Optional[Fraction]
    recommended_graph: str


def base_report(d: int, k: int, p: Optional[DistanceProfile] = None) -> BaseReport:
    schoening_base = base_schoening(d, k)
    complete_base = base_for_graph(profile(complete(d)), k)
    cycle_base = base_for_graph(profile(directed_cycle(d)), k)
    return BaseReport(
        d=d,
        k=k,
        schoening_base=schoening_base,
        det_complete_base=complete_base,
        det_cycle_base=cycle_base,
        graph_base=base_for_graph(p, k) if p is not None else None,
        recommended_graph="cycle" if cycle_base < complete_base else "complete",
    )


@dataclass(frozen=True)
class LambdaSolution:
    """Root in (0,1] of lambda = 1/k + ((k-1)/k) lambda^d.

    lambda^j is the probability that the distance walk started at j ever
    reaches 0. The equation degenerates to lambda = 1 when d(k-1) <= k (the
    walk drifts downward and absorbs almost surely).
    """

    d: int
    k: int
    value: float
    residual: float

    @property
    def degenerate(self) -> bool:
        return self.value == 1.0


def solve_lambda(d: int, k: int) -> LambdaSolution:
    """Bisection for the unique root in (0,1); lambda = 1 in the degenerate case."""
    _check_dk(d, k)

    def fn(lam: float) -> float:
        return 1 / k + (k - 1) / k * lam**d - lam

    if d * (k - 1) <= k:
        return LambdaSolution(d, k, 1.0, abs(fn(1.0)))
    lo, hi = 0.0, 1.0 - 1e-6
    while fn(hi) >= 0:
        hi = 1.0 - (1.0 - hi) / 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    lam = (lo + hi) / 2
    return LambdaSolution(d, k, lam, abs(fn(lam)))


def reach_probability(d: int, k: int, j: int) -> float:
    """Probability lambda^j that the walk started at distance j ever reaches 0."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return solve_lambda(d, k).value ** j


def success_probability_identity(d: int, k: int, n: int) -> tuple[float, float]:
    """Both sides of sum_j T(n,j) lambda^j / d^n = (k / (d(k-1)))^n.

    The left side averages the reach probability over a uniform random start
    (shells of the cycle distance weight the start distances); the geometric
    series collapses it to the closed form on the right.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lam = solve_lambda(d, k).value
    counts = shell_counts(profile(directed_cycle(d)), n).counts
    lhs = math.fsum(t * lam**j for j, t in enumerate(counts)) / d**n
    rhs = (k / (d * (k - 1))) ** n
    return lhs, rhs


def markov_simulate(
    d: int,
    k: int,
    j_start: int,
    max_steps: int,
    trials: int,
    rng: Union[np.random.Generator, int, None] = None,
) -> tuple[float, float]:
    """Monte Carlo frequency of the walk reaching 0 from j_start within max_steps.

    Steps go down 1 with probability 1/k, up d-1 otherwise; 0 absorbs.
    Returns (frequency, binomial standard error). Each iteration moves every
    live walk by one step, drawing one uniform per live walk. Walks at 0 are
    counted and retired; walks above the remaining step budget are dropped,
    since down-steps are -1 and they cannot reach 0 in time, so the estimate
    is unchanged. Memory is O(trials): nothing larger than one array of
    positions is held.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if j_start < 0 or max_steps < 0:
        raise ValueError("j_start and max_steps must be nonnegative")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    positions = np.full(trials, j_start, dtype=np.int64)
    reached = 0
    for remaining in range(max_steps, -1, -1):
        hit = positions == 0
        reached += int(np.count_nonzero(hit))
        positions = positions[~hit & (positions <= remaining)]
        if not positions.size or not remaining:
            break
        positions += np.where(gen.random(positions.size) < 1 / k, -1, d - 1)
    freq = reached / trials
    stderr = math.sqrt(freq * (1 - freq) / trials)
    return freq, stderr
