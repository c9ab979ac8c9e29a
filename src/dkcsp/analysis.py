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
probability 1/k, up d-1 otherwise) absorbed at 0. It gives the walk's reach
probability three ways: lambda^j from the fixed point, the exact
finite-horizon sum of the hitting-time formula (reach_within), and a Monte
Carlo run (markov_simulate) that jumps each walk over the steps that cannot
reach 0, in batches of bounded memory, and uses neither of the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .colorgraph import DistanceProfile, complete, directed_cycle, profile

if TYPE_CHECKING:
    import numpy as np
__all__ = [
    "BaseReport",
    "LambdaSolution",
    "base_for_graph",
    "base_report",
    "base_schoening",
    "markov_simulate",
    "reach_probability",
    "reach_within",
    "solve_lambda",
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


def reach_within(d: int, k: int, j: int, max_steps: int) -> float:
    """Exact probability that the distance walk from j reaches 0 within max_steps.

    The walk steps down by at most 1, so by the hitting-time theorem (van der
    Hofstad & Keane, Amer. Math. Monthly 2008) the first visit to 0 happens
    at t = j + d*u, after u up-steps, with probability

        P(tau = t) = (j/t) C(t, u) ((k-1)/k)^u (1/k)^(t-u).

    The terms are computed in log space and summed over t <= max_steps. The
    sum stops once a term falls below 1e-18 of the largest one, so past the
    mode and below 1e-18 of the partial sum, which makes a large horizon
    cheap when the walk drifts away from 0. As max_steps grows the
    value tends to lambda^j.

    At d = k = 2 the walk has no drift and the terms decay only like
    t^(-3/2), so the stop never fires; there the walk is the simple
    symmetric one, and by the reflection principle

        P(tau > T) = P(-j < W_T <= j),  W_T = T - 2 Binomial(T, 1/2),

    which is at most j binomial terms whatever the horizon.
    """
    _check_dk(d, k)
    if j < 0 or max_steps < 0:
        raise ValueError("j and max_steps must be nonnegative")
    if j == 0:
        return 1.0
    if max_steps < j:
        return 0.0
    if d == k == 2:
        # W_T = T - 2b lies in (-j, j] for b in [ceil((T-j)/2), ceil((T+j)/2)),
        # inside [0, T] since j <= T
        t = max_steps
        log_total = math.lgamma(t + 1) - t * math.log(2)
        stay = math.fsum(
            math.exp(log_total - math.lgamma(b + 1) - math.lgamma(t - b + 1))
            for b in range(-(-(t - j) // 2), -(-(t + j) // 2))
        )
        return max(1.0 - stay, 0.0)
    log_up, log_down, log_cut = math.log((k - 1) / k), -math.log(k), math.log(1e-18)
    terms: list[float] = []
    peak = -math.inf
    for t in range(j, max_steps + 1, d):
        u = (t - j) // d
        log_term = (
            math.log(j / t)
            + math.lgamma(t + 1) - math.lgamma(u + 1) - math.lgamma(t - u + 1)
            + u * log_up + (t - u) * log_down
        )
        terms.append(math.exp(log_term))
        if log_term < peak + log_cut:
            break
        peak = max(peak, log_term)
    return min(math.fsum(terms), 1.0)


# Walks simulated together; bounds the simulation's memory whatever `trials` is.
_BATCH = 1 << 14


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
    Returns (frequency, binomial standard error). Walks at 0 are counted and
    retired; walks above their remaining step budget are dropped, since
    down-steps are -1 and they cannot reach 0 in time.

    Each iteration jumps every live walk over the steps that cannot reach 0:
    a walk at p cannot reach 0 in its next p-1 steps, so it moves s =
    max(p-1, 1) steps at once, to p + (d-1)s - d*Binomial(s, 1/k), and s is
    taken from its budget. Hits are counted at the same positions a
    step-by-step walk would pass through, so the estimate has the same law,
    from one binomial draw per live walk per iteration. Walks run in batches
    of 2^14, so memory is O(batch) whatever `trials` is.
    """
    import numpy as np
    _check_dk(d, k)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if j_start < 0 or max_steps < 0:
        raise ValueError("j_start and max_steps must be nonnegative")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    reached = 0
    for start in range(0, trials, _BATCH):
        size = min(_BATCH, trials - start)
        positions = np.full(size, j_start, dtype=np.int64)
        remaining = np.full(size, max_steps, dtype=np.int64)
        while True:
            hit = positions == 0
            reached += int(np.count_nonzero(hit))
            live = ~hit & (positions <= remaining)
            positions, remaining = positions[live], remaining[live]
            if not positions.size:
                break
            jump = np.maximum(positions - 1, 1)
            positions += (d - 1) * jump - d * gen.binomial(jump, 1 / k)
            remaining -= jump
    freq = reached / trials
    stderr = math.sqrt(freq * (1 - freq) / trials)
    return freq, stderr
