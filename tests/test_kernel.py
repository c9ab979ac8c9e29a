"""Differential tests of the bitset constraint kernel.

The oracles are `formula.evaluate` and a copy of the count-based state the
kernel replaced (per-constraint falsified-literal counts with an O(m) scan),
together with the ball search and walk written against it. Witnesses, node
counts and step counts must agree exactly, which pins the search order, and
so must the bytes a walk reads from its block, which pins how it draws.
"""

import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dkcsp.colorgraph import complete, directed_cycle, from_edges, hypercube
from dkcsp.covercode import build_code
from dkcsp.formula import Constraint, Formula, Literal, evaluate, generate_random
from dkcsp import search, walk
from dkcsp.search import (
    _TABLE_BYTES,
    SearchStats,
    _ConstraintBits,
    det_solve,
    schoening_solve,
)

from paper_oracle import constraint, graph_searchball, schoening_run, unsat


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


def block_walk(f, g, steps, block):
    """The walk as schoening_solve states its draws, read from block with
    arithmetic in place of the kernel's tables: (witness or None, steps
    taken, bytes read)."""
    lcm = math.lcm(*map(len, g.out))
    top = max([f.d] + [len(con.literals) * lcm for con in f.constraints])
    width = max(1, ((top - 1).bit_length() + 7) // 8)
    stream, pos = bytes(block), 0

    def value():
        nonlocal stream, pos
        if pos + width > len(stream):  # past the block: double it from a generator it seeds
            stream += random.Random(stream).randbytes(len(stream))
        pos += width
        return int.from_bytes(stream[pos - width : pos], "little")

    def draw(count):  # uniform below count: the top 256^W mod count values draw again
        while True:
            x = value()
            if x < 256**width - 256**width % count:
                return x % count

    alpha = [draw(f.d) + 1 for _ in range(f.n)]
    state = CountState(f)
    state.reset(alpha)
    for taken in range(steps):
        ci = state.first_unsat()
        if ci is None:
            return tuple(alpha), taken, pos
        lits = f.constraints[ci].literals
        if not lits:  # no option: the first value drawn ends the walk
            value()
            return None, taken, pos
        # one draw among the literals' L options each: literal o // L, out-neighbor o mod delta
        o = draw(len(lits) * lcm)
        lit = lits[o // lcm]
        nbrs = g.out[lit.color - 1]
        state.set_color(lit.var, nbrs[o % len(nbrs)])
    return (tuple(alpha) if state.first_unsat() is None else None), steps, pos


class ReadBlock(bytes):
    """A walk's block that counts the bytes read from it and from the blocks it is extended to."""

    def __new__(cls, data, reads=None):
        block = super().__new__(cls, data)
        block.reads = [0] if reads is None else reads
        return block

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.reads[0] += len(got) if isinstance(i, slice) else 1
        return got

    def __add__(self, more):
        return ReadBlock(bytes(self) + more, self.reads)


def kernel_walk(walker, block):
    """(witness or None, steps taken, bytes read) of the kernel's walk on block."""
    block = ReadBlock(block)
    return (*walker(block), block.reads[0])


def walk_blocks(f, g, steps, seed):
    """A block drawn as schoening_solve draws it, and a copy with every third
    byte 255, which most tables reject, so that its walks redraw and run past it."""
    block = random.Random(seed).randbytes(walk._block_size(f, g.out, steps))
    return block, bytes(255 if i % 3 == 0 else b for i, b in enumerate(block))


# out-degrees 1, 2, 3, 4 and 1: L = 12
IRREGULAR = from_edges(5, [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (3, 4), (4, 1), (4, 2), (4, 3),
                           (4, 5), (5, 1)])


def unsat_indices(f, alpha):
    return [
        i for i, con in enumerate(f.constraints)
        if all(alpha[lit.var - 1] == lit.color for lit in con.literals)
    ]


def lowest_unsat(state, alpha):
    """Index of the lowest set bit of the kernel's unsat bitset, or None."""
    u = unsat(state, alpha)
    return (u & -u).bit_length() - 1 if u else None


def kernel_indices(state, alpha):
    u = unsat(state, alpha)
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
        assert unsat(state, [2]) == 0b11 << 70

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


# a step draws among k * L options (L = 2 on complete(3) and hypercube(2), 3
# and 4 on complete(4) and complete(5), 1 on the cycles), redrawing the top
# 256 mod (k * L) bytes
GRAPHS = [complete(2), complete(3), complete(4), complete(5), directed_cycle(3), directed_cycle(4),
          hypercube(2)]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.name}{g.d}")
class TestAgainstCountState:
    def instances(self, g, count):
        rng = random.Random(f"{g.name}/{g.d}/{count}")
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
        # also the same bytes read, so the kernel reads its block by the rule
        # stated, on drawn blocks and on 255-laden ones that make walks redraw
        for rng, f in self.instances(g, 40):
            steps = 3 * (g.d - 1) * f.n
            walker = walk._walker(_ConstraintBits(f), g.out, steps)
            for block in walk_blocks(f, g, steps, rng.getrandbits(64)):
                assert kernel_walk(walker, block) == block_walk(f, g, steps, block)

    def test_det_solve_shares_state_across_balls(self, g):
        # a solve reuses one searcher, and its state, for every ball it searches
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


class TestLeafFilter:
    """A node with one edit left rejects a leaf whose row meets the node's own
    unsatisfied set; a leaf that clears that set is still tested against what
    the other variables leave. Witnesses and node counts against the oracle."""

    # at (1, 1) only x1 != 1 is unsatisfied; re-coloring x1 clears it but breaks
    # the constraint that only x1 = 1 satisfied: x1 != 2 or x2 != 1 at (2, 1),
    # and x1 != 3 or x2 != 1 at (3, 1) when the third constraint is there
    BROKEN = (constraint((1, 1)), constraint((1, 2), (2, 1)))

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("g", [complete(3), directed_cycle(3)], ids=["complete", "cycle"])
    def test_leaf_clearing_unsat_breaks_another(self, g, r):
        f = Formula(2, 3, 2, self.BROKEN + (constraint((1, 3), (2, 1)),))
        state = _ConstraintBits(f)
        for leaf in [(c2, 1) for c2 in g.out[0]]:
            assert unsat(state, leaf) and not unsat(state, (1, 1)) & unsat(state, leaf)
        witness, stats = graph_searchball(f, g, (1, 1), r)
        assert (witness, stats.nodes_visited) == oracle_searchball(f, g, (1, 1), r)
        assert (witness is None) == (r == 1)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("g", [complete(3), directed_cycle(3)], ids=["complete", "cycle"])
    def test_constraint_off_the_variable_rejects_every_leaf(self, g, r):
        # at (1, 1) both constraints are unsatisfied, and no re-coloring of x1
        # clears x2 != 1: x1's leaves are rejected together
        f = Formula(2, 3, 1, (constraint((1, 1)), constraint((2, 1))))
        witness, stats = graph_searchball(f, g, (1, 1), r)
        assert (witness, stats.nodes_visited) == oracle_searchball(f, g, (1, 1), r)
        assert (witness is None) == (r == 1)

    @pytest.mark.parametrize("r,nodes", [(1, 3), (2, 4), (3, 5)])
    def test_witness_after_a_rejected_leaf(self, r, nodes):
        # the last node before the witness is (1, 1) or (2, 1) with one edit
        # left; its first leaf clears the node's unsatisfied constraint, breaks
        # the other one and is rejected, and its second, (3, 1), is the witness
        f = Formula(2, 3, 2, self.BROKEN)
        g = complete(3)
        witness, stats = graph_searchball(f, g, (1, 1), r)
        assert (witness, stats.nodes_visited) == oracle_searchball(f, g, (1, 1), r) == ((3, 1), nodes)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, data):
        f = data.draw(formulas())
        # a directed path leaves the last color with no out-neighbor
        graphs = [complete(f.d), directed_cycle(f.d), from_edges(f.d, [(c, c + 1) for c in range(1, f.d)])]
        g = data.draw(st.sampled_from(graphs + ([hypercube(2)] if f.d == 4 else [])))
        center = tuple(data.draw(st.lists(st.integers(1, f.d), min_size=f.n, max_size=f.n)))
        r = data.draw(st.integers(0, 4))
        witness, stats = graph_searchball(f, g, center, r)
        assert (witness, stats.nodes_visited) == oracle_searchball(f, g, center, r)


# the largest group size at each d: (d+1)^g <= 2^10
GROUP = {2: 6, 3: 5, 4: 4, 5: 3}


def boundary_sizes(d):
    g = GROUP[d]
    return sorted({0, 1, g - 1, g, g + 1, 2 * g + 1})


def boundary_instances(rng, n, d, count):
    if n == 0:
        yield Formula(0, d, 3, ())
        yield Formula(0, d, 3, (Constraint(()),))
        return
    for trial in range(count):
        m = rng.randint(0, 10 * n)
        if trial % 2 == 0 or n < 3:
            yield mixed_formula(rng, n, d, 3, m)
        else:
            yield generate_random(n, d, 3, m, rng.getrandbits(32))


def row_oracle(f, v, c):
    """The row of (variable v, color c) from its definition: color 0 clears nothing."""
    return sum(
        1 << i for i, con in enumerate(f.constraints)
        if c == 0 or all(lit.color == c for lit in con.literals if lit.var == v + 1)
    )


@pytest.mark.parametrize("d, n", [(d, n) for d in GROUP for n in boundary_sizes(d)])
class TestGroupBoundaries:
    """Instances whose n sits at and around a group boundary, against the CountState oracles."""

    def test_group_size(self, d, n):
        state = _ConstraintBits(generate_random(n, d, 1, 5 if n else 0, 1))
        groups = max(1, -(-n // GROUP[d]))  # the fewest groups of at most GROUP[d]
        assert len(state.tables) == groups
        assert state.group == max(1, -(-n // groups))  # balanced: 2g+1 is three groups

    def test_table_entries_are_ands_of_rows(self, d, n):
        rng = random.Random(d * 100 + n)
        for f in boundary_instances(rng, n, d, 2):
            state = _ConstraintBits(f)
            full = (1 << f.m) - 1
            rows = [[row_oracle(f, v, c) for c in range(d + 1)] for v in range(n)]
            for j, table in enumerate(state.tables):
                members = [v for v, (group, _) in enumerate(state.place) if group == j]
                assert members == list(range(j * state.group, j * state.group + len(members)))
                assert len(table) == (d + 1) ** len(members)
                for index, entry in enumerate(table):
                    expected = full
                    for p, v in enumerate(members):
                        assert state.place[v] == (j, (d + 1) ** p)
                        expected &= rows[v][index // (d + 1) ** p % (d + 1)]
                    assert entry == expected, (j, index)

    def test_state_matches_evaluate_after_recolorings(self, d, n):
        rng = random.Random(d * 1000 + n)
        for f in boundary_instances(rng, n, d, 6):
            state = _ConstraintBits(f)
            oracle = CountState(f)
            alpha = [rng.randint(1, d) for _ in range(n)]
            oracle.reset(list(alpha))
            for _ in range(30 if n else 1):
                assert lowest_unsat(state, alpha) == evaluate(f, alpha)[1] == oracle.first_unsat()
                assert kernel_indices(state, alpha) == unsat_indices(f, alpha)
                idx = state.index(alpha)
                assert state.coloring(idx) == tuple(alpha)
                if n:
                    var, color = rng.randint(1, n), rng.randint(1, d)
                    alpha[var - 1] = color
                    oracle.set_color(var, color)

    @pytest.mark.parametrize("graph", [complete, directed_cycle])
    def test_searchball_and_walk(self, d, n, graph):
        g = graph(d)
        rng = random.Random(f"{graph.__name__}/{d}/{n}")
        for f in boundary_instances(rng, n, d, 6):
            for _ in range(2):
                center = tuple(rng.randint(1, d) for _ in range(n))
                r = rng.randint(0, 3)
                witness, stats = graph_searchball(f, g, center, r)
                assert (witness, stats.nodes_visited) == oracle_searchball(f, g, center, r)
                steps = 3 * (d - 1) * n
                seed = rng.getrandbits(64)
                stats = SearchStats()
                witness = schoening_run(f, g, steps, random.Random(seed), stats)
                block, hostile = walk_blocks(f, g, steps, seed)
                assert (witness, stats.steps) == block_walk(f, g, steps, block)[:2]
                walker = walk._walker(_ConstraintBits(f), g.out, steps)
                assert kernel_walk(walker, hostile) == block_walk(f, g, steps, hostile)


def ungrouped(monkeypatch):
    """Make every later state use g = 1, the rows themselves."""
    monkeypatch.setattr(search, "_TABLE_ENTRIES", 1)


class TestTableCap:
    def test_g1_tables_are_the_rows(self, monkeypatch):
        f = generate_random(7, 3, 3, 60, 5)
        ungrouped(monkeypatch)
        state = _ConstraintBits(f)
        assert state.group == 1
        assert state.tables == [[row_oracle(f, v, c) for c in range(4)] for v in range(7)]

    def test_large_instance_stays_under_cap(self, monkeypatch):
        n, d, m = 200, 3, 4000
        f = generate_random(n, d, 3, m, 13, planted=[1 + v % d for v in range(n)])

        def held(f):
            tracemalloc.start()
            try:
                state = _ConstraintBits(f)
                return state, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        state, grouped = held(f)
        entry = sys.getsizeof((1 << m) - 1) + 8
        cap = max(_TABLE_BYTES, 4 * n * (d + 1) * entry)
        # uncapped, g = 5 would take about 40 * 4^5 entries, ten times the cap
        assert 1 < state.group < GROUP[d]
        assert state.table_bytes <= cap
        ungrouped(monkeypatch)
        rows, flat = held(f)
        assert rows.group == 1
        # what the tables add over the rows is within the cap
        assert grouped - flat <= cap
        g = directed_cycle(d)
        center = tuple(random.Random(3).randint(1, d) for _ in range(n))
        expected = (graph_searchball(f, g, center, 2), schoening_solve(f, g, 3, rng=8))
        monkeypatch.undo()
        assert (graph_searchball(f, g, center, 2), schoening_solve(f, g, 3, rng=8)) == expected

    def test_capped_det_solve_matches_g1(self, monkeypatch):
        # m = 20,000: two groups of 5 would take 2,048 entries of about 2.7 kB,
        # more than the cap, so n = 10 takes three groups of at most 4
        f = generate_random(10, 3, 3, 20_000, 17, planted=(2, 3, 1, 1, 3, 2, 2, 1, 3, 1))
        assert _ConstraintBits(f).group == 4
        g = complete(3)
        result = det_solve(f, g)
        ungrouped(monkeypatch)
        assert det_solve(f, g) == result
        assert result.status == "sat" and result.stats.balls_searched > 1


def wide_formula(seed):
    """n = 3,000 at d = 8, width-2 constraints on 12 variables spread from x1
    to x3000: one group per variable, since the byte cap rules out g = 2."""
    n, d = 3000, 8
    spread = [1 + (n - 1) * i // 11 for i in range(12)]
    small = generate_random(12, d, 2, 200, seed)
    cons = tuple(Constraint(tuple(Literal(spread[x.var - 1], x.color) for x in con.literals))
                 for con in small.constraints)
    return Formula(n, d, 2, cons)


# (formula, group count G, largest radius searched)
KERNEL_CASES = {
    "n0": (Formula(0, 3, 3, ()), 1, 3),
    "n0-empty": (Formula(0, 3, 3, (Constraint(()),)), 1, 3),
    "g1": (generate_random(5, 3, 3, 80, 31), 1, 3),
    "g2": (generate_random(10, 3, 3, 60, 32), 2, 3),
    "g3": (generate_random(12, 3, 3, 80, 33), 3, 3),
    "wide": (wide_formula(34), 3000, 2),
}


@pytest.mark.parametrize("graph", [complete, directed_cycle])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
class TestGeneratedKernels:
    """The kernels compiled per group count G, against the CountState oracles:
    G = 1 (n = 0's one table is [full]), 2, 3, and 3,000 groups, whose
    unsatisfied set a left-deep chain of & could not compile."""

    def test_group_count(self, case, graph):
        f, groups, _ = KERNEL_CASES[case]
        state = _ConstraintBits(f)
        assert len(state.tables) == groups
        if f.n == 0:
            assert state.tables == [[(1 << f.m) - 1]]
        if case == "wide":
            assert state.group == 1

    def test_balls_match_oracle(self, case, graph):
        f, _, radius = KERNEL_CASES[case]
        g = graph(f.d)
        state = _ConstraintBits(f)
        rng = random.Random(case)
        witnesses = balls = nodes = 0
        for r in range(radius + 1):
            searchball = search._ball_searcher(state, g.out, r)  # one searcher for every ball
            for _ in range(4):
                center = tuple(rng.randint(1, f.d) for _ in range(f.n))
                witness, ball_nodes = searchball(center)
                assert (witness, ball_nodes) == oracle_searchball(f, g, center, r)
                witnesses += witness is not None
                balls, nodes = balls + 1, nodes + ball_nodes
        assert witnesses or case == "n0-empty"
        assert nodes > balls or f.n == 0  # some ball branched

    def test_walks_match_oracle(self, case, graph):
        f, _, _ = KERNEL_CASES[case]
        g = graph(f.d)
        state = _ConstraintBits(f)
        rng = random.Random(case)
        for steps in (0, 3, 40):
            walker = walk._walker(state, g.out, steps)
            for _ in range(3):
                for block in walk_blocks(f, g, steps, rng.getrandbits(64)):
                    assert kernel_walk(walker, block) == block_walk(f, g, steps, block)

    def test_same_group_count_shares_code(self, case, graph):
        f, groups, _ = KERNEL_CASES[case]
        g = graph(f.d)
        other = Formula(f.n, f.d, f.k, f.constraints[: f.m // 2])
        kernels = []
        for formula in (f, other):
            state = _ConstraintBits(formula)
            assert len(state.tables) == groups
            kernels.append((search._ball_searcher(state, g.out, 2),
                            walk._walker(state, g.out, 5)))
        (ball, walker), (ball2, walker2) = kernels
        assert ball is not ball2 and walker is not walker2
        assert ball.__code__ is ball2.__code__
        assert walker.__code__ is walker2.__code__
        if groups > 1:  # another group count compiles its own kernel
            one_group = _ConstraintBits(generate_random(1, f.d, 1, 3, 1))
            assert search._ball_searcher(one_group, g.out, 2).__code__ is not ball.__code__


class TestWalkDraws:
    """The walk's draws from its block: tables that give each option the same
    number of values, the law of a step on graphs with unequal out-degrees
    and with more than 256 options, and walks that run past their block."""

    @pytest.mark.parametrize("width", [1, 2])
    def test_tables_give_each_option_equal_values(self, width):
        full = 256**width
        for count in range(1, 257) if width == 1 else (257, 300, 4097, 65535, 65536):
            table = walk._draw_table(range(count), width)
            lim = full - full % count  # the top full mod count values draw again
            hits = Counter(table[x] for x in range(full))
            assert hits.pop(-1, 0) == full - lim
            assert hits == dict.fromkeys(range(count), lim // count)
            assert all(table[x] == -1 for x in range(lim, full))
        # a start table: the values are (c + 1) * w
        assert Counter(walk._draw_table((4, 8, 12), width)[x] for x in range(full)) == {
            4: full // 3, 8: full // 3, 12: full // 3, -1: full % 3}
        assert {walk._draw_table((), width)[x] for x in range(full)} == {-1}

    @pytest.mark.parametrize("g, colors", [
        (from_edges(3, [(1, 2), (1, 3), (2, 1), (3, 1)]), (1, 2, 3)),
        (complete(10), (1,) * 29),
        (IRREGULAR, (1, 2, 3, 4, 5) * 5),
    ], ids=["unequal-degrees", "261-options", "300-options-unequal"])
    def test_first_step_picks_literal_then_out_neighbor(self, g, colors):
        # one constraint, falsified at the start `colors`: over the values of
        # the first step's draw, literal i and out-neighbor c2 are picked by
        # 1 / (k * delta_i) of the accepted ones, and the rest draw again
        k = len(colors)
        f = Formula(k, g.d, k, (Constraint(tuple(Literal(v, c) for v, c in enumerate(colors, 1))),))
        lcm, width = walk._walk_shape(g.d, {k}, g.out)
        assert (k * lcm > 256) == (width == 2)
        count, full = k * lcm, 256**width
        lim = full - full % count
        walker = walk._walker(_ConstraintBits(f), g.out, 1)
        start = b"".join((c - 1).to_bytes(width, "little") for c in colors)
        # W = 1: every value; W = 2: one period of the accepted values, and the rejected ones
        values = range(full) if width == 1 else [*range(count), *range(lim, full)]
        hits = Counter()
        for x in values:
            witness, taken, read = kernel_walk(walker, start + x.to_bytes(width, "little") + bytes(8 * width))
            assert taken == 1 and witness is not None
            if x >= lim:
                assert read == len(start) + 2 * width
                continue
            assert read == len(start) + width
            (i,) = [i for i in range(k) if witness[i] != colors[i]]
            hits[i, witness[i]] += 1
        accepted = lim if width == 1 else count
        want = {(i, c2): accepted // (k * len(g.out[c - 1])) for i, c in enumerate(colors) for c2 in g.out[c - 1]}
        assert hits == want
        assert all(h * k * len(g.out[colors[i] - 1]) == accepted for (i, _), h in hits.items())

    @pytest.mark.parametrize("g, colors", [(complete(10), (1,) * 29), (complete(300), (1,))],
                             ids=["261-options", "d-300"])
    def test_empty_constraint_ends_wide_walks(self, g, colors):
        # an empty constraint is never satisfied: at W = 2 as at W = 1, a walk
        # that reaches it reads one draw and ends without a witness
        k = len(colors)
        f = Formula(k, g.d, k, (Constraint(tuple(Literal(v, c) for v, c in enumerate(colors, 1))), Constraint(())))
        assert walk._walk_shape(g.d, {k}, g.out)[1] == 2
        steps = 5
        walker = walk._walker(_ConstraintBits(f), g.out, steps)
        # the start falsifies the first constraint; value 0 re-colors x_1 to 2
        start = b"".join((c - 1).to_bytes(2, "little") for c in colors)
        block = start + bytes(16)
        assert kernel_walk(walker, block) == block_walk(f, g, steps, block) == (None, 1, len(start) + 4)
        for block in walk_blocks(f, g, steps, 3):
            assert kernel_walk(walker, block) == block_walk(f, g, steps, block)
        result = schoening_solve(f, g, 4, rng=1)
        assert (result.status, result.stats.repetitions) == ("unknown", 4)

    def test_jobs_with_walks_past_their_block(self, monkeypatch):
        # blocks cut to the start and step draws alone, so a walk that redraws
        # more than the word's rounding allows goes on with bytes seeded by its block
        monkeypatch.setattr(walk, "_block_size", lambda f, out, steps: -(-(f.n + steps) // 4) * 4)
        g, steps_mult, reps = complete(4), 1000, 8  # 3 options a step: byte 255 draws again
        unsat = Formula(1, 4, 1, tuple(constraint((1, c)) for c in range(1, 5)))
        size = walk._block_size(unsat, g.out, steps_mult)
        master = random.Random(7)
        walker = walk._walker(_ConstraintBits(unsat), g.out, steps_mult)
        past = [kernel_walk(walker, master.randbytes(size))[2] > size for _ in range(reps)]
        assert any(past) and not all(past)
        planted = generate_random(3, 4, 3, 40, 5, planted=(4, 4, 4))
        for f in (unsat, planted):
            serial, pooled = (schoening_solve(f, g, reps, steps_mult, rng=7, jobs=j) for j in (1, 2))
            assert serial == pooled
        assert serial.status == "sat"
        unknown = schoening_solve(unsat, g, reps, steps_mult, rng=7, jobs=2)
        assert (unknown.status, unknown.stats.repetitions, unknown.stats.steps) == ("unknown", reps, reps * 1000)
