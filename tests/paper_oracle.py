"""The paper's definitions, procedures, volume bounds and walk identities, used by the tests only.

No solver path calls these: they restate the product distance, the formula
normal form and lemmas of the analysis so the tests can check the program's
exact counts and bases against them, and expose the paper's two named
procedures, the search of one ball (graph_searchball) and one random walk
(schoening_run), on the solvers' own kernels. unsat is the unsatisfied set
those kernels compute inline, written as a reduce over the groups, and
constraint writes a constraint as its (var, color) pairs.
"""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import and_
from typing import Optional, Sequence

from dkcsp.analysis import base_for_graph, solve_lambda
from dkcsp.colorgraph import ColorGraph, DistanceProfile, directed_cycle, profile
from dkcsp.formula import Constraint, Formula, Literal
from dkcsp.search import SearchStats, _check_graph, _ball_searcher, _ConstraintBits
from dkcsp.walk import _block_size, _walker, check_walk
from dkcsp.volume import select_radius, shell_counts


def constraint(*pairs: tuple[int, int]) -> Constraint:
    """Build a constraint from (var, color) pairs, in order."""
    return Constraint(tuple(Literal(v, c) for v, c in pairs))


def color_distance(g: ColorGraph, c1: int, c2: int) -> Optional[int]:
    """Shortest-path length from color c1 to color c2; None if unreachable."""
    return g.distances[c1 - 1][c2 - 1]


def assignment_distance(g: ColorGraph, a: Sequence[int], b: Sequence[int]) -> int:
    """Sum of per-coordinate graph distances from a to b (order matters if directed)."""
    if len(a) != len(b):
        raise ValueError(f"assignment lengths differ: {len(a)} vs {len(b)}")
    dist = g.distances
    total = 0
    for x, y in zip(a, b):
        if not (1 <= x <= g.d and 1 <= y <= g.d):
            raise ValueError(f"color out of range 1..{g.d}")
        step = dist[x - 1][y - 1]
        if step is None:
            raise ValueError(f"color {y} unreachable from {x}")
        total += step
    return total


def _check_center(f: Formula, g: ColorGraph, center: Sequence[int]) -> None:
    _check_graph(f, g)
    if len(center) != f.n:
        raise ValueError(f"center has length {len(center)}, expected {f.n}")
    for v in center:
        if not 1 <= v <= f.d:
            raise ValueError(f"center color {v} out of range 1..{f.d}")


def unsat(state: _ConstraintBits, alpha: Sequence[int]) -> int:
    """Bitset of the constraints alpha leaves unsatisfied: the reference AND,
    one table entry per group, that the solvers' kernels compute inline."""
    return reduce(and_, map(list.__getitem__, state.tables, state.index(alpha)))


def graph_searchball(
    f: Formula, g: ColorGraph, center: Sequence[int], r: int
) -> tuple[Optional[tuple[int, ...]], SearchStats]:
    """Search the radius-r ball around `center` for a satisfying assignment.

    Branches on the first unsatisfied constraint: for each literal (x != c)
    in constraint order, re-colors x to each out-neighbor of c in sorted
    order and recurses with radius r - 1. Returns the first witness found
    (deterministic order) or None if the ball contains none.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    _check_center(f, g, center)
    witness, nodes = _ball_searcher(_ConstraintBits(f), g.out, r)(center)
    stats = SearchStats(nodes_visited=nodes, balls_searched=1, max_ball_nodes=nodes)
    return witness, stats


def schoening_run(
    f: Formula,
    g: ColorGraph,
    steps: int,
    rng: random.Random,
    stats: Optional[SearchStats] = None,
) -> Optional[tuple[int, ...]]:
    """One random-walk run of at most `steps` re-coloring steps.

    Starts from a uniform random assignment; while some constraint is
    unsatisfied, picks one of its literals uniformly at random and re-colors
    the literal's variable to a uniform out-neighbor of the literal's color.
    With the complete graph this is the classic walk (new color uniform among
    the d-1 others). Its draws come from one block of bytes drawn from rng,
    as schoening_solve draws each walk's. Returns a satisfying assignment or
    None.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    check_walk(f, g, 1)
    block = rng.randbytes(_block_size(f, g.out, steps))
    witness, taken = _walker(_ConstraintBits(f), g.out, steps)(block)
    if stats is not None:
        stats.steps += taken
    return witness


def normalize(f: Formula) -> Formula:
    """Drop duplicate literals and tautological constraints.

    A constraint holding two literals on the same variable with different
    colors is satisfied by every assignment and is removed. Constraint order
    is otherwise preserved; the result is satisfaction-equivalent.
    """
    kept: list[Constraint] = []
    for con in f.constraints:
        seen: set[tuple[int, int]] = set()
        color_of: dict[int, int] = {}
        lits: list[Literal] = []
        tautology = False
        for lit in con.literals:
            if color_of.get(lit.var, lit.color) != lit.color:
                tautology = True
                break
            if (lit.var, lit.color) in seen:
                continue
            seen.add((lit.var, lit.color))
            color_of[lit.var] = lit.color
            lits.append(lit)
        if not tautology:
            kept.append(Constraint(tuple(lits)))
    return Formula(f.n, f.d, f.k, tuple(kept))


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
    counts = shell_counts(profile(directed_cycle(d)), n)
    lhs = math.fsum(t * lam**j for j, t in enumerate(counts)) / d**n
    rhs = (k / (d * (k - 1))) ** n
    return lhs, rhs


def _gf(p: DistanceProfile, x: Fraction) -> Fraction:
    """The per-coordinate generating function sum_i d_i x^i."""
    return sum(d_i * x**i for i, d_i in enumerate(p.counts))


def lower_bound(p: DistanceProfile, n: int, x: Fraction | int) -> tuple[int, Fraction]:
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
    r = select_radius(p, n, x.numerator, x.denominator)
    return r, _gf(p, x) ** n / (terms * x**r)


def upper_bound(p: DistanceProfile, n: int, r: int, x: Fraction | int) -> Fraction:
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
