"""The paper's volume bounds and walk identities, used by the tests only.

No solver path calls these: they restate lemmas of the analysis so the tests
can check the program's exact counts and bases against them.
"""

import math
from fractions import Fraction

from dkcsp.analysis import base_for_graph, solve_lambda
from dkcsp.colorgraph import DistanceProfile, directed_cycle, profile
from dkcsp.volume import Rational, select_radius, shell_counts


def cycle_optimality_check(p: DistanceProfile, k: int) -> bool:
    """True iff the profile's base is at least the directed cycle's base.

    Holds for every accepted profile: d_i <= delta^i bounds each denominator
    term by k^(-i), which is the cycle's term. Exact rational comparison.
    """
    return base_for_graph(p, k) >= base_for_graph(profile(directed_cycle(p.d)), k)


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
