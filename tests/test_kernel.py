"""Differential tests of the bitset constraint kernel.

The oracles are `formula.evaluate` and a copy of the count-based state the
kernel replaced (per-constraint falsified-literal counts with an O(m) scan),
together with the ball search and walk written against it. Witnesses, node
counts and step counts must agree exactly, which pins the search order and
the walk's RNG draws.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dkcsp.colorgraph import complete, directed_cycle, hypercube
from dkcsp.covercode import build_code
from dkcsp.formula import Constraint, Formula, Literal, evaluate, generate_random
from dkcsp.search import SearchStats, _ConstraintBits, det_solve, graph_searchball, schoening_run


class CountState:
    """Per-constraint falsified-literal counts, updated as single colors change."""

    def __init__(self, f):
        self.constraints = f.constraints
        self.widths = [len(c.literals) for c in f.constraints]
        self.occ = [[] for _ in range(f.n + 1)]
        for ci, con in enumerate(f.constraints):
            for lit in con.literals:
                self.occ[lit.var].append((ci, lit.color))
        self.alpha = []
        self.counts = []

    def reset(self, alpha):
        self.alpha = alpha
        self.counts = [
            sum(1 for lit in con.literals if alpha[lit.var - 1] == lit.color)
            for con in self.constraints
        ]

    def first_unsat(self):
        for ci, cnt in enumerate(self.counts):
            if cnt == self.widths[ci]:
                return ci
        return None

    def set_color(self, var, color):
        old = self.alpha[var - 1]
        if old == color:
            return
        for ci, c in self.occ[var]:
            if c == old:
                self.counts[ci] -= 1
            elif c == color:
                self.counts[ci] += 1
        self.alpha[var - 1] = color


def oracle_searchball(f, g, center, r):
    state = CountState(f)
    state.reset(list(center))
    nodes = 0

    def rec(budget):
        nonlocal nodes
        nodes += 1
        ci = state.first_unsat()
        if ci is None:
            return tuple(state.alpha)
        if budget == 0:
            return None
        for lit in f.constraints[ci].literals:
            for c2 in g.out[lit.color - 1]:
                state.set_color(lit.var, c2)
                found = rec(budget - 1)
                state.set_color(lit.var, lit.color)
                if found is not None:
                    return found
        return None

    return rec(r), nodes


def oracle_walk(f, g, steps, rng):
    alpha = [rng.randint(1, f.d) for _ in range(f.n)]
    state = CountState(f)
    state.reset(alpha)
    taken = 0
    for _ in range(steps):
        ci = state.first_unsat()
        if ci is None:
            return tuple(alpha), taken
        lits = f.constraints[ci].literals
        if not lits:
            return None, taken
        lit = lits[rng.randrange(len(lits))]
        nbrs = g.out[lit.color - 1]
        state.set_color(lit.var, nbrs[rng.randrange(len(nbrs))])
        taken += 1
    return (tuple(alpha) if state.first_unsat() is None else None), taken


def unsat_indices(f, alpha):
    return [
        i for i, con in enumerate(f.constraints)
        if all(alpha[lit.var - 1] == lit.color for lit in con.literals)
    ]


def lowest_unsat(state, alpha):
    """Index of the lowest set bit of the kernel's unsat bitset, or None."""
    u = state.unsat(alpha)
    return (u & -u).bit_length() - 1 if u else None


class CountingRandom(random.Random):
    """random.Random that counts getrandbits calls; randrange draws through them."""

    def __init__(self, seed):
        self.calls = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def kernel_indices(state, alpha):
    u = state.unsat(alpha)
    return [i for i in range(u.bit_length()) if u >> i & 1]


@st.composite
def formulas(draw):
    """Constraints with repeated variables: duplicates, tautologies and empties occur."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, 4))
    lit = st.builds(Literal, st.integers(1, max(n, 1)), st.integers(1, d))
    con = st.lists(lit, max_size=k if n else 0).map(lambda lits: Constraint(tuple(lits)))
    m = draw(st.integers(0, 100))
    return Formula(n, d, k, tuple(draw(st.lists(con, min_size=m, max_size=m))))


TAUTOLOGY = Constraint((Literal(1, 1), Literal(1, 2)))
DUPLICATE = Constraint((Literal(1, 2), Literal(1, 2)))


class TestKernelState:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_evaluate_after_recolorings(self, data):
        f = data.draw(formulas())
        alpha = data.draw(st.lists(st.integers(1, f.d), min_size=f.n, max_size=f.n))
        move = st.tuples(st.integers(1, max(f.n, 1)), st.integers(1, f.d))
        moves = data.draw(st.lists(move, max_size=20 if f.n else 0))
        state = _ConstraintBits(f)
        oracle = CountState(f)
        oracle.reset(list(alpha))
        for var, color in [(None, None)] + moves:
            if var is not None:
                alpha[var - 1] = color
                oracle.set_color(var, color)
            first = evaluate(f, alpha)[1]
            assert lowest_unsat(state, alpha) == first == oracle.first_unsat()
            assert kernel_indices(state, alpha) == unsat_indices(f, alpha)

    def test_degenerate_formulas(self):
        assert lowest_unsat(_ConstraintBits(Formula(0, 3, 2, ())), []) is None
        assert lowest_unsat(_ConstraintBits(Formula(0, 3, 2, (Constraint(()),))), []) == 0
        assert lowest_unsat(_ConstraintBits(Formula(3, 3, 2, ())), [1, 2, 3]) is None
        state = _ConstraintBits(Formula(1, 3, 2, (TAUTOLOGY, DUPLICATE)))
        assert [lowest_unsat(state, [c]) for c in (1, 2, 3)] == [None, 1, None]
        # past bit 64: a duplicate at 70 and an empty constraint at 71
        state = _ConstraintBits(Formula(1, 3, 2, (TAUTOLOGY,) * 70 + (DUPLICATE, Constraint(()))))
        assert [lowest_unsat(state, [c]) for c in (1, 2, 3)] == [71, 70, 71]
        assert state.unsat([2]) == 0b11 << 70

    def test_masks_span_machine_words(self):
        f = generate_random(8, 3, 3, 300, 2)
        state = _ConstraintBits(f)
        rng = random.Random(1)
        seen_high = False
        for _ in range(200):
            alpha = [rng.randint(1, 3) for _ in range(8)]
            indices = kernel_indices(state, alpha)
            assert indices == unsat_indices(f, alpha)
            assert lowest_unsat(state, alpha) == evaluate(f, alpha)[1]
            seen_high |= any(i >= 128 for i in indices)
        assert seen_high


def mixed_formula(rng, n, d, k, m):
    """Random width-k constraints over repeatable variables, a few of them empty."""
    cons = []
    for _ in range(m):
        width = 0 if rng.random() < 0.02 else k
        cons.append(Constraint(tuple(Literal(rng.randint(1, n), rng.randint(1, d)) for _ in range(width))))
    return Formula(n, d, k, tuple(cons))


# complete(4) and complete(5) have out-degree 3 and 4, so the walk's neighbor
# draw is rejected and redrawn at 2 and 3 bits
GRAPHS = [complete(2), complete(3), complete(4), complete(5), directed_cycle(3), directed_cycle(4),
          hypercube(2)]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.name}{g.d}")
class TestAgainstCountState:
    def instances(self, g, count):
        rng = random.Random(hash((g.name, g.d, count)) & 0xFFFF)
        for trial in range(count):
            n = rng.randint(3, 8)
            m = rng.randint(0, 12 * n)
            if trial % 3 == 0:
                f = mixed_formula(rng, n, g.d, 3, m)
            else:
                f = generate_random(n, g.d, 3, m, rng.getrandbits(32))
            yield rng, f

    def test_searchball_witness_and_nodes(self, g):
        for rng, f in self.instances(g, 40):
            center = tuple(rng.randint(1, g.d) for _ in range(f.n))
            r = rng.randint(0, 4)
            witness, stats = graph_searchball(f, g, center, r)
            assert (witness, stats.nodes_visited) == oracle_searchball(f, g, center, r)

    def test_walk_witness_and_steps(self, g):
        # also the same number of getrandbits calls as the randrange oracle, so
        # the stream is left at the same position, not only the walk's result
        calls = draws = 0
        for rng, f in self.instances(g, 40):
            steps = 3 * (g.d - 1) * f.n
            seed = rng.getrandbits(64)
            ours, theirs = CountingRandom(seed), CountingRandom(seed)
            stats = SearchStats()
            witness = schoening_run(f, g, steps, ours, stats)
            assert (witness, stats.steps) == oracle_walk(f, g, steps, theirs)
            assert ours.calls == theirs.calls
            assert ours.getrandbits(64) == theirs.getrandbits(64)
            calls += ours.calls - 1
            draws += f.n + 2 * stats.steps
        assert calls > draws  # some draws were rejected and redrawn

    def test_det_solve_shares_state_across_balls(self, g):
        # _search_chunk reuses one state for every ball of a chunk
        for rng, f in self.instances(g, 6):
            cap = g.d ** min(f.n, 5)
            code = build_code(g, f.n, f.k, cap)
            nodes = 0
            for center in code.codewords:
                witness, ball_nodes = oracle_searchball(f, g, center, code.radius)
                nodes += ball_nodes
                if witness is not None:
                    break
            result = det_solve(f, g, block_cap=cap)
            assert (result.assignment, result.stats.nodes_visited) == (witness, nodes)
