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
probability three ways: lambda^j, with lambda found by iterating its
fixed-point equation from 0 (solve_lambda), the exact finite-horizon sum of
the hitting-time formula (reach_within), and a Monte Carlo run
(markov_simulate) that uses neither of the other two. The
simulation advances each walk a generation at a time: a walk at distance p
takes its next p steps with one binomial draw, since only p down-steps in a
row reach 0 among them. Its walks run in chunks on two threads, chunk i on
thread i mod 2 and drawing from child i of the seed's SeedSequence, so the
estimate depends on the seed alone and at most 2^14 walks are live.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

    from .colorgraph import DistanceProfile
__all__ = [
    "LambdaSolution",
    "base_for_graph",
    "base_schoening",
    "check_simulation",
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
    from fractions import Fraction

    _check_dk(d, k)
    return Fraction(d * (k - 1), k)


def base_for_graph(p: DistanceProfile, k: int) -> Fraction:
    """Base of the code-plus-search solver for an arbitrary profile.

    With x = 1/(k*delta): d / sum_i d_i (k*delta)^(-i). Reduces to dk/(k+1)
    for the complete graph and d(k-1)/k * k^d/(k^d - 1) for the directed
    cycle.
    """
    from fractions import Fraction

    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if p.delta < 1:
        raise ValueError("profile must have out-degree at least 1")
    denom = sum(Fraction(d_i, (k * p.delta) ** i) for i, d_i in enumerate(p.counts))
    return Fraction(p.d) / denom


class LambdaSolution(NamedTuple):
    """Least root in (0,1] of lambda = 1/k + ((k-1)/k) lambda^d.

    lambda^j is the probability that the distance walk started at j ever
    reaches 0. It is 1 only at d = k = 2, where the walk has no drift.
    """

    value: float
    residual: float


def solve_lambda(d: int, k: int) -> LambdaSolution:
    """Iterate lambda <- 1/k + ((k-1)/k) lambda^d from 0 while it rises.

    The map increases on [0,1] and is 1/k > 0 at 0, so the iterates rise to
    its least fixed point, and a strictly rising sequence of floats in [0,1]
    is finite. At d = k = 2 the root 1 is double and the iterates would
    close in only like 1/t, so the iteration starts there.
    """
    _check_dk(d, k)
    lam = 1.0 if d == k == 2 else 0.0
    while (nxt := 1 / k + (k - 1) / k * lam**d) > lam:
        lam = nxt
    return LambdaSolution(lam, lam - nxt)


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


# Walks per chunk. Chunk i draws from its own random stream, so the estimate
# does not depend on how many threads run the chunks.
_CHUNK = 1 << 13
# Walks live at once over all threads, one chunk per thread; bounds memory
# whatever `trials` is, and _BATCH // _CHUNK is the thread count.
_BATCH = 1 << 14


def check_simulation(d: int, k: int, j_start: int, max_steps: int, trials: int) -> None:
    """Raise ValueError unless markov_simulate can run these walks."""
    _check_dk(d, k)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (0 <= j_start < 1 << 63 and 0 <= d * max_steps < 1 << 63):  # the walks' arrays are int64
        raise ValueError(f"need 0 <= j_start, d * max_steps < 2^63, got {j_start}, {d * max_steps}")


def _chunk_hits(
    gen: np.random.Generator, size: int, d: int, k: int, j_start: int, max_steps: int
) -> int:
    """How many of `size` walks from j_start reach 0 within max_steps."""
    import numpy as np

    positions = np.full(size, j_start, dtype=np.int64)
    remaining = np.full(size, max_steps, dtype=np.int64)
    hits = 0
    while positions.size:
        hits += positions.size - int(np.count_nonzero(positions))
        live = (positions != 0) & (positions <= remaining)
        positions, remaining = positions[live], remaining[live]
        remaining -= positions
        positions = d * gen.binomial(positions, (k - 1) / k)
    return hits


def markov_simulate(
    d: int,
    k: int,
    j_start: int,
    max_steps: int,
    trials: int,
    rng: Optional[int] = None,
) -> tuple[float, float]:
    """Monte Carlo frequency of the walk reaching 0 from j_start within max_steps.

    Steps go down 1 with probability 1/k, up d-1 otherwise; 0 absorbs.
    Returns (frequency, binomial standard error). Walks at 0 are counted and
    retired; walks above their remaining step budget are dropped, since
    down-steps are -1 and they cannot reach 0 in time.

    Each iteration advances every live walk by one generation, with one
    binomial draw. Read the distance as a count of pending individuals: a
    step settles one, giving it d children on an up-step (+d-1) and none on
    a down-step (-1). The walk hits 0 at the step that settles the last one,
    so it hits 0 within max_steps exactly when its family's total size is at
    most max_steps. The p individuals pending now are one generation: they
    take the next p steps and leave d*Binomial(p, (k-1)/k) children, 0 just
    when all p steps went down. So a walk at p is charged p steps and moved
    there, and dropped once its generation exceeds the steps left; the
    estimate has the law of the step-by-step walk.

    The seed rng is an int, or None for fresh entropy. The walks run in
    chunks of 2^13, and chunk i draws from the stream its index names, child
    i of np.random.SeedSequence(rng), so for an int seed the result depends
    on the arguments alone, never on how many threads ran. The chunks run on
    T = min(chunks, 2) threads, the caller's among them (numpy's binomial
    draws release the GIL): thread w runs chunks w, w + T, w + 2T, ..., so
    at most 2^14 walks are live and memory is O(2^14) whatever `trials` is.
    An error in any thread, or a thread that fails to start, stops further
    chunks; every started thread is joined, and the first error is raised.
    """
    import numpy as np

    check_simulation(d, k, j_start, max_steps, trials)
    if j_start > max_steps:  # down-steps are -1: no walk reaches 0 in time
        return 0.0, 0.0
    # SeedSequence(entropy, spawn_key=(i,)) is child i of SeedSequence(rng)
    entropy = np.random.SeedSequence(rng).entropy
    n_chunks = -(-trials // _CHUNK)
    n_threads = min(n_chunks, _BATCH // _CHUNK)
    stop = threading.Event()
    hits: list[int] = []
    errors: list[BaseException] = []

    def run_chunks(first: int) -> None:
        try:
            for i in range(first, n_chunks, n_threads):
                if stop.is_set():
                    return
                gen = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
                size = min(_CHUNK, trials - i * _CHUNK)
                hits.append(_chunk_hits(gen, size, d, k, j_start, max_steps))
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)
            stop.set()

    threads: list[threading.Thread] = []
    try:
        for first in range(1, n_threads):
            thread = threading.Thread(target=run_chunks, args=(first,))
            thread.start()
            threads.append(thread)
        run_chunks(0)
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    freq = sum(hits) / trials
    stderr = math.sqrt(freq * (1 - freq) / trials)
    return freq, stderr
