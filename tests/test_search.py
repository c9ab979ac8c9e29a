import itertools
import multiprocessing
import os
import random
import subprocess
import sys
from concurrent.futures import Future
from contextlib import closing
from pathlib import Path
from types import SimpleNamespace

import pytest

from dkcsp import covercode, search
from dkcsp.colorgraph import (
    complete,
    directed_cycle,
    from_edges,
    hypercube,
)
from dkcsp.formula import (
    Constraint,
    Formula,
    brute_force_solve,
    evaluate,
    generate_random,
)
from dkcsp.covercode import build_code
from dkcsp.search import (
    SearchStats,
    SolveResult,
    _ConstraintBits,
    det_solve,
    schoening_solve,
)

from paper_oracle import assignment_distance, constraint, graph_searchball, schoening_run, unsat


def ball_oracle(f, g, center, r):
    """Exhaustively scan the ball for a satisfying assignment."""
    for point in itertools.product(range(1, f.d + 1), repeat=f.n):
        if assignment_distance(g, center, point) <= r and evaluate(f, point)[0]:
            return point
    return None


def node_bound(k, delta, r):
    return sum((k * delta) ** i for i in range(r + 1))


class TestGraphSearchball:
    def test_already_satisfying(self):
        f = generate_random(5, 3, 3, 4, 0)
        witness = brute_force_solve(f)
        assert witness is not None
        found, stats = graph_searchball(f, complete(3), witness, 3)
        assert found == witness
        assert stats.nodes_visited == 1

    def test_radius_zero_not_satisfying(self):
        f = Formula(2, 3, 2, (constraint((1, 1), (2, 2)),))
        found, stats = graph_searchball(f, complete(3), (1, 2), 0)
        assert found is None
        assert stats.nodes_visited == 1

    def test_branching_count_exact(self):
        # one fully falsified 3-constraint plus an empty constraint: the root
        # spawns exactly k(d-1) children, each a dead leaf
        f = Formula(3, 3, 3, (constraint((1, 1), (2, 1), (3, 1)), Constraint(())))
        found, stats = graph_searchball(f, complete(3), (1, 1, 1), 1)
        assert found is None
        assert stats.nodes_visited == 1 + 3 * 2

    def test_cycle_branching_smaller(self):
        f = Formula(3, 3, 3, (constraint((1, 1), (2, 1), (3, 1)), Constraint(())))
        found, stats = graph_searchball(f, directed_cycle(3), (1, 1, 1), 1)
        assert found is None
        assert stats.nodes_visited == 1 + 3 * 1

    def test_witness_at_exact_radius(self):
        planted = (2, 3, 1, 2)
        f = generate_random(4, 3, 3, 25, 9, planted)
        center = (1, 1, 1, 1)
        g = complete(3)
        r = assignment_distance(g, center, planted)
        found, _ = graph_searchball(f, g, center, r)
        assert found is not None
        assert evaluate(f, found)[0]
        assert assignment_distance(g, center, found) <= r

    @pytest.mark.parametrize(
        "g", [complete(2), complete(3), complete(4), directed_cycle(3), directed_cycle(4), hypercube(2)],
        ids=lambda g: f"{g.name}{g.d}",
    )
    def test_oracle_agreement(self, g):
        rng = random.Random(f"{g.name}/{g.d}")
        for trial in range(25):
            n = rng.randint(2, 5)
            m = rng.randint(0, 3 * n)
            f = generate_random(n, g.d, min(3, n), m, rng.getrandbits(32))
            center = tuple(rng.randint(1, g.d) for _ in range(n))
            r = rng.randint(0, 3)
            found, stats = graph_searchball(f, g, center, r)
            expected = ball_oracle(f, g, center, r)
            assert (found is None) == (expected is None)
            if found is not None:
                assert evaluate(f, found)[0]
                assert assignment_distance(g, center, found) <= r
            from dkcsp.colorgraph import profile
            assert stats.nodes_visited <= node_bound(f.k, profile(g).delta, r)

    def test_invalid_center(self):
        f = generate_random(3, 3, 2, 2, 0)
        with pytest.raises(ValueError):
            graph_searchball(f, complete(3), (1, 1), 1)
        with pytest.raises(ValueError):
            graph_searchball(f, complete(4), (1, 1, 1), 1)


class TestSchoeningRun:
    def test_empty_formula_immediate(self):
        f = Formula(4, 3, 2, ())
        witness = schoening_run(f, complete(3), 0, random.Random(0))
        assert witness is not None and len(witness) == 4

    def test_empty_constraint_aborts(self):
        f = Formula(3, 3, 2, (Constraint(()),))
        for seed in range(5):
            assert schoening_run(f, complete(3), 50, random.Random(seed)) is None

    def test_stuck_color_rejected(self):
        g = from_edges(2, [(1, 2)])
        f = generate_random(3, 2, 2, 2, 0)
        with pytest.raises(ValueError, match="out-neighbor"):
            schoening_run(f, g, 10, random.Random(0))

    def test_cycle_walk_distance_deltas(self):
        # re-coloring along the directed cycle moves the distance to any
        # fixed target by exactly -1 or +(d-1) on the changed coordinate
        d = 3
        g = directed_cycle(d)
        rng = random.Random(7)
        f = generate_random(6, d, 3, 150, 21)
        beta = tuple(rng.randint(1, d) for _ in range(6))
        alpha = [rng.randint(1, d) for _ in range(6)]
        state = _ConstraintBits(f)
        deltas = set()
        for _ in range(200):
            u = unsat(state, alpha)
            if not u:
                break
            lits = f.constraints[(u & -u).bit_length() - 1].literals
            lit = lits[rng.randrange(len(lits))]
            before = assignment_distance(g, tuple(alpha), beta)
            nbrs = g.out[lit.color - 1]
            alpha[lit.var - 1] = nbrs[rng.randrange(len(nbrs))]
            after = assignment_distance(g, tuple(alpha), beta)
            deltas.add(after - before)
        assert deltas <= {-1, d - 1}
        assert deltas

    def test_deterministic_given_seed(self):
        f = generate_random(6, 3, 3, 10, 4)
        a = schoening_run(f, complete(3), 30, random.Random(12))
        b = schoening_run(f, complete(3), 30, random.Random(12))
        assert a == b


class TestSchoeningSolve:
    def test_planted_found(self):
        planted = tuple(random.Random(5).randint(1, 3) for _ in range(12))
        f = generate_random(12, 3, 3, 30, 17, planted)
        result = schoening_solve(f, complete(3), repetitions=300, rng=1)
        assert result.status == "sat"
        assert evaluate(f, result.assignment)[0]
        assert 1 <= result.stats.repetitions <= 300

    def test_planted_found_on_cycle(self):
        planted = tuple(random.Random(6).randint(1, 3) for _ in range(10))
        f = generate_random(10, 3, 3, 25, 18, planted)
        result = schoening_solve(f, directed_cycle(3), repetitions=400, rng=2)
        assert result.status == "sat"
        assert evaluate(f, result.assignment)[0]

    def test_empty_formula_one_rep(self):
        f = Formula(3, 3, 2, ())
        result = schoening_solve(f, complete(3), repetitions=1, rng=0)
        assert result.status == "sat"

    def test_unsatisfiable_never_sat(self):
        f = Formula(1, 2, 2, (constraint((1, 1)), constraint((1, 2))))
        result = schoening_solve(f, complete(2), repetitions=50, rng=3)
        assert result.status == "unknown"
        assert result.stats.repetitions == 50

    def test_seeded_result_pinned(self):
        # witness, restarts and steps of a seeded run; a kernel that changes
        # the walk's blocks or how it reads them changes these
        f = generate_random(12, 3, 3, 250, 17)
        result = schoening_solve(f, directed_cycle(3), 100, rng=1)
        assert result.assignment == (3, 1, 1, 2, 3, 1, 3, 1, 3, 3, 3, 3)
        assert (result.stats.repetitions, result.stats.steps) == (2, 125)

    def test_reproducible_across_jobs(self):
        f = generate_random(8, 3, 3, 20, 30)
        a = schoening_solve(f, complete(3), 40, rng=9)
        b = schoening_solve(f, complete(3), 40, rng=9, jobs=2)
        assert a == b


class TestDetSolve:
    @pytest.mark.parametrize("gname", ["complete", "cycle"])
    def test_oracle_equivalence_small(self, gname):
        rng = random.Random(100 if gname == "complete" else 200)
        for _ in range(60):
            n = rng.randint(2, 7)
            d = rng.randint(2, 4)
            k = rng.randint(2, min(3, n))
            m = rng.randint(0, 25)
            planted = None
            if rng.random() < 0.5:
                planted = tuple(rng.randint(1, d) for _ in range(n))
            f = generate_random(n, d, k, m, rng.getrandbits(32), planted)
            g = complete(d) if gname == "complete" else directed_cycle(d)
            result = det_solve(f, g, block_cap=4096)
            oracle = brute_force_solve(f)
            assert (result.status == "sat") == (oracle is not None)
            if result.status == "sat":
                assert evaluate(f, result.assignment)[0]

    def test_oracle_equivalence_hypercube(self):
        rng = random.Random(300)
        g = hypercube(2)
        for _ in range(25):
            n = rng.randint(2, 5)
            f = generate_random(n, 4, 2, rng.randint(0, 40), rng.getrandbits(32))
            result = det_solve(f, g, block_cap=1024)
            oracle = brute_force_solve(f)
            assert (result.status == "sat") == (oracle is not None)
            if result.status == "sat":
                assert evaluate(f, result.assignment)[0]

    def test_schoening_on_hypercube(self):
        planted = tuple(random.Random(8).randint(1, 4) for _ in range(8))
        f = generate_random(8, 4, 3, 30, 19, planted)
        result = schoening_solve(f, hypercube(2), repetitions=500, rng=4)
        assert result.status == "sat"
        assert evaluate(f, result.assignment)[0]

    def test_empty_formula_first_codeword(self):
        f = Formula(4, 3, 3, ())
        result = det_solve(f, directed_cycle(3), block_cap=81)
        assert result.status == "sat"
        assert result.stats.balls_searched == 1
        assert result.stats.nodes_visited == 1

    def test_empty_constraint_unsat(self):
        f = Formula(3, 3, 2, (Constraint(()),))
        result = det_solve(f, complete(3), block_cap=27)
        assert result.status == "unsat"

    def test_deterministic_including_stats(self):
        f = generate_random(6, 3, 3, 14, 77)
        a = det_solve(f, directed_cycle(3), block_cap=729)
        b = det_solve(f, directed_cycle(3), block_cap=729)
        assert a == b

    def test_reproducible_across_jobs(self):
        f = generate_random(7, 3, 2, 18, 55)
        a = det_solve(f, complete(3), block_cap=2187)
        b = det_solve(f, complete(3), block_cap=2187, jobs=2)
        assert a == b

    def test_color_count_mismatch_rejected(self):
        f = generate_random(4, 4, 2, 5, 1)
        with pytest.raises(ValueError, match="colors"):
            det_solve(f, complete(3), block_cap=81)

    def test_node_bound_per_ball(self):
        from dkcsp.colorgraph import profile
        from dkcsp.covercode import build_code

        rng = random.Random(14)
        for g in (complete(3), directed_cycle(3)):
            for _ in range(10):
                f = generate_random(6, 3, 3, rng.randint(0, 20), rng.getrandbits(32))
                code = build_code(g, 6, 3, 729)
                result = det_solve(f, g, block_cap=729)
                bound = node_bound(3, profile(g).delta, code.radius)
                assert result.stats.max_ball_nodes <= bound


# generate_random arguments; det_solve on the directed cycle with block cap 729
# (a 567-codeword code) finds the first witness of SAT_DEEP in ball 298, past
# the first chunk for every jobs value in 1..3, and UNSAT has no witness.
SAT_DEEP = (7, 3, 3, 160, 5)
UNSAT = (7, 3, 3, 200, 9)


class TestJobs:
    @pytest.mark.parametrize("args", [UNSAT, SAT_DEEP], ids=["unsat", "sat-deep"])
    def test_det_solve_independent_of_jobs(self, args):
        f = generate_random(*args)
        results = [det_solve(f, directed_cycle(3), block_cap=729, jobs=j) for j in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        if results[0].status == "sat":
            assert results[0].stats.balls_searched > -(-567 // 4)
        else:
            assert results[0].stats.balls_searched == 567

    def test_schoening_solve_independent_of_jobs(self):
        f = generate_random(*UNSAT)
        results = [schoening_solve(f, directed_cycle(3), 30, rng=2, jobs=j) for j in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert results[0].status == "unknown"
        assert results[0].stats.repetitions == 30

    def test_early_exit_leaves_no_workers(self):
        f = generate_random(*SAT_DEEP)
        result = det_solve(f, directed_cycle(3), block_cap=729, jobs=2)
        assert result.status == "sat"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("gname", ["complete", "cycle"])
    def test_results_independent_of_chunk_size(self, gname, monkeypatch):
        # pooled results are read per item in item order, so splitting the
        # items into one chunk each or into a single chunk changes no stats
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(search, "_worker", ())
        monkeypatch.setattr(InlinePool, "sizes", [])
        g = complete(3) if gname == "complete" else directed_cycle(3)
        cases = [(6, 3, 3, 120, 3), (6, 3, 3, 130, 4), (6, 3, 3, 140, 5), (6, 3, 3, 150, 6)]
        cases += [SAT_DEEP, UNSAT]
        splits = [
            search._chunked,
            lambda items, jobs: [items[i : i + 1] for i in range(len(items))],
            lambda items, jobs: [items],
        ]
        statuses = set()
        for args in cases:
            f = generate_random(*args)
            results = []
            for split in splits:
                monkeypatch.setattr(search, "_chunked", split)
                results.append(
                    (det_solve(f, g, block_cap=729, jobs=2), schoening_solve(f, g, 20, rng=args[-1], jobs=2))
                )
            assert results[0] == results[1] == results[2]
            statuses.add(results[0][0].status)
        assert statuses == {"sat", "unsat"}
        assert InlinePool.sizes  # the pool ran

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        f = generate_random(4, 3, 3, 5, 1)
        with pytest.raises(ValueError, match="jobs"):
            det_solve(f, complete(3), block_cap=81, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            schoening_solve(f, complete(3), 5, rng=1, jobs=jobs)

    def test_jobs_checked_before_any_work(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("covering code built before the jobs check")

        class NoDraws(random.Random):
            def getrandbits(self, k):
                raise AssertionError("seed drawn before the jobs check")

        for name in ("plan_blocks", "first_row", "build_code"):
            monkeypatch.setattr(covercode, name, no_build)
        f = generate_random(18, 3, 3, 250, 1)
        with pytest.raises(ValueError, match="jobs"):
            det_solve(f, complete(3), block_cap=19683, jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            schoening_solve(f, complete(3), 5, rng=NoDraws(1), jobs=0)


class TestRecords:
    """SearchStats is a mutable record with value equality, and SolveResult a
    named tuple: the jobs-independence tests compare both."""

    def test_search_stats(self):
        stats = SearchStats(nodes_visited=3)
        assert stats == SearchStats(3, 0, 0, 0, 0) != SearchStats(nodes_visited=3, steps=1)
        stats.steps += 2
        assert stats == SearchStats(nodes_visited=3, steps=2)
        assert repr(stats) == ("SearchStats(nodes_visited=3, balls_searched=0, repetitions=0, "
                               "steps=2, max_ball_nodes=0)")
        with pytest.raises(TypeError):
            hash(stats)

    def test_solve_result(self):
        result = SolveResult("sat", (1, 2), SearchStats(balls_searched=1))
        assert result == SolveResult("sat", (1, 2), SearchStats(balls_searched=1))
        assert result != SolveResult("sat", (1, 2), SearchStats(balls_searched=2))
        assert (result.status, result.assignment, result.stats.balls_searched) == ("sat", (1, 2), 1)


def eager_det_solve(f, g, cap):
    """The ball search over a code built in full first: every codeword's ball
    in code order, up to the first witness, in process."""
    code = build_code(g, f.n, f.k, cap)
    searchball, stats = search._ball_searcher(_ConstraintBits(f), g.out, code.radius), SearchStats()
    for cw in code.codewords:
        witness, nodes = searchball(cw)
        stats.nodes_visited += nodes
        stats.balls_searched += 1
        stats.max_ball_nodes = max(stats.max_ball_nodes, nodes)
        if witness is not None:
            return SolveResult("sat", witness, stats)
    return SolveResult("unsat", None, stats)


# n, block cap, the code's blocks, and generate_random(n, 3, 3, m, seed)
# arguments (m, seed) whose first witness lies in the product's first row,
# past it, or nowhere, on both graphs
STREAM_SHAPES = {
    "one-block": (6, 729, (6,), [(60, 0), (90, 5), (150, 9)]),
    "two-equal": (8, 81, (4, 4), [(100, 2), (140, 0), (220, 0)]),
    "three-unequal": (10, 81, (4, 3, 3), [(150, 1), (200, 2), (150, 5), (300, 0)]),
}


class TestStreamedSearch:
    """det_solve searches the first row while the code is built: it must give
    what the search over the code built in full gives."""

    @pytest.mark.parametrize("shape", list(STREAM_SHAPES))
    @pytest.mark.parametrize("g", [complete(3), directed_cycle(3)], ids=["complete", "cycle"])
    def test_matches_eager_search(self, g, shape):
        n, cap, blocks, cases = STREAM_SHAPES[shape]
        kinds = set()
        for m, seed in cases:
            f = generate_random(n, 3, 3, m, seed)
            fresh = []
            for jobs in (1, 2):
                build_code.cache_clear()
                fresh.append(det_solve(f, g, block_cap=cap, jobs=jobs))
            code = build_code(g, n, 3, cap)
            cached = [det_solve(f, g, block_cap=cap, jobs=jobs) for jobs in (1, 2)]
            want = eager_det_solve(f, g, cap)
            assert fresh == cached == [want, want], (m, seed)
            assert code.blocks == blocks
            if want.status == "unsat":
                assert want.stats.balls_searched == len(code.codewords)
                kinds.add("unsat")
            elif len(blocks) > 1 and want.stats.balls_searched <= code.block_code_sizes[-1]:
                kinds.add("first row")
            else:
                kinds.add("past it" if len(blocks) > 1 else "sat")
        assert kinds == ({"sat", "unsat"} if len(blocks) == 1 else {"first row", "past it", "unsat"})

    def test_first_row_witness_leaves_the_code_unfinished(self):
        # the witness of (100, 2) is in ball 6 of the first row of 9
        build_code.cache_clear()
        g = complete(3)
        result = det_solve(generate_random(8, 3, 3, 100, 2), g, block_cap=81)
        assert (result.status, result.stats.balls_searched) == ("sat", 6)
        size, r = covercode.plan_blocks(g, 8, 3, 81)[-1]
        picks = covercode._shared_picks(g, size, r)
        assert len(picks.picks) == 6
        assert len(picks.code()) == 9
        build_code.cache_clear()


class TestZeroVariables:
    """At n = 0 the code is the single empty codeword: one ball of one node."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("constraints,status,assignment", [
        ((), "sat", ()), ((Constraint(()),), "unsat", None),
    ], ids=["sat", "unsat"])
    def test_det_solve(self, constraints, status, assignment, jobs):
        for g in (complete(3), directed_cycle(3)):
            result = det_solve(Formula(0, 3, 2, constraints), g, jobs=jobs)
            assert result == SolveResult(status, assignment, SearchStats(1, 1, 0, 0, 1))

    def test_disconnected_graph(self):
        # no radius covers a disconnected graph's space, but n = 0 needs none
        g = from_edges(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        assert det_solve(Formula(0, 4, 2, ()), g) == SolveResult("sat", (), SearchStats(1, 1, 0, 0, 1))


class FlipsAfter:
    """A stop flag whose value reads 0 for the first k reads and 1 after."""

    def __init__(self, k):
        self.reads, self.k = 0, k

    @property
    def value(self):
        self.reads += 1
        return int(self.reads > self.k)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process,
    runs the initializer once and each submitted call in process."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


# det_solve under the spawn start method, which pickles the initializer's
# arguments (formula and shared stop flag) instead of inheriting them
SPAWN_PROBE = """
import multiprocessing, sys
multiprocessing.set_start_method("spawn")
from dkcsp.colorgraph import directed_cycle
from dkcsp.formula import generate_random
from dkcsp.search import det_solve
for args in (%r, %r):
    f = generate_random(*args)
    serial, pooled = (det_solve(f, directed_cycle(3), block_cap=729, jobs=j) for j in (1, 2))
    print(serial.status, serial == pooled)
"""


class TestStopFlag:
    @pytest.fixture(autouse=True)
    def restore_worker(self, monkeypatch):
        monkeypatch.setattr(search, "_worker", ())

    def start_worker(self, stop):
        f = generate_random(*UNSAT)
        search._init_worker(search._ball_searcher, f, directed_cycle(3).out, 1, stop)

    def centers(self, count):
        return list(itertools.islice(itertools.product((1, 2, 3), repeat=UNSAT[0]), count))

    def test_set_flag_searches_nothing(self):
        self.start_worker(SimpleNamespace(value=1))
        assert search._search_chunk(self.centers(5)) == []

    @pytest.mark.parametrize("k", [0, 1, 4, 7])
    def test_flag_flipping_after_k_reads_yields_k_results(self, k):
        flag = FlipsAfter(k)
        self.start_worker(flag)
        results = search._search_chunk(self.centers(7))
        assert len(results) == k
        assert all(witness is None for witness, _ in results)
        if k < 7:
            assert flag.reads == k + 1

    def test_pool_size_capped_by_chunks(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        sizes = []
        monkeypatch.setattr(InlinePool, "sizes", sizes)
        # two one-coordinate blocks of 3 codewords: the first row's 3 balls
        # are searched in process, the other 6 in 6 chunks of one
        f = Formula(2, 3, 1, (constraint((1, 1)), constraint((1, 2)), constraint((1, 3))))
        result = det_solve(f, complete(3), block_cap=3, jobs=64)
        assert result.status == "unsat"
        assert result.stats.balls_searched == 9
        g = directed_cycle(3)
        pooled = schoening_solve(generate_random(*UNSAT), g, 5, rng=4, jobs=64)
        monkeypatch.undo()
        assert pooled == schoening_solve(generate_random(*UNSAT), g, 5, rng=4)
        assert sizes == [6, 5]

    def test_spawn_start_method_matches_serial(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", SPAWN_PROBE % (SAT_DEEP, UNSAT)],
                              cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["sat True", "unsat True"]


class TestResultChecks:
    """A witness that fails the formula raises, so it also fails under python -O."""

    @pytest.fixture(autouse=True)
    def fresh_codes(self):
        build_code.cache_clear()
        yield
        build_code.cache_clear()

    @pytest.mark.parametrize("solve", [
        lambda f, g: det_solve(f, g, block_cap=27),
        lambda f, g: schoening_solve(f, g, 3, rng=1),
    ], ids=["det", "schoening"])
    def test_wrong_witness_raises(self, monkeypatch, solve):
        # every ball search and walk answers (1, ..., 1) on an UNSAT instance
        f = generate_random(*UNSAT)
        monkeypatch.setattr(search, "_runner", lambda make, f, out, arg: lambda item: ((1,) * f.n, 1))
        with pytest.raises(RuntimeError, match="witness fails constraint"):
            solve(f, directed_cycle(3))


class TestInProcess:
    """In process, a solve maps one searcher over its items: no chunks, no
    stop flag, and each result reaches the solve loop as soon as it exists."""

    def test_each_ball_reaches_the_loop_once_searched(self, monkeypatch):
        ball_searcher, searches = search._ball_searcher, []

        def counted(state, out, r):
            run = ball_searcher(state, out, r)

            def search_ball(center):
                searches.append(center)
                return run(center)
            return search_ball

        monkeypatch.setattr(search, "_ball_searcher", counted)
        g = complete(3)
        f = generate_random(8, 3, 3, 400, 3)
        code = build_code(g, 8, 3, 81)
        assert code.block_code_sizes[-1] < len(code.codewords)  # balls past the first row
        with closing(search._ball_results(f, g, 81, 1)) as results:
            for ball, (witness, _) in enumerate(results, start=1):
                assert witness is None
                assert len(searches) == ball
        assert searches == list(code.codewords)

    def test_no_chunk_is_searched_in_process(self, monkeypatch):
        g = directed_cycle(3)
        cases = [generate_random(*args) for args in (SAT_DEEP, UNSAT)]

        def solve_all():
            return [(det_solve(f, g, block_cap=729), schoening_solve(f, g, 20, rng=3)) for f in cases]

        want = solve_all()

        def no_chunks(*args):
            raise AssertionError("_search_chunk ran in process")

        monkeypatch.setattr(search, "_search_chunk", no_chunks)
        assert solve_all() == want
        assert {det.status for det, _ in want} == {"sat", "unsat"}
