"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its pinned tolerance
and prints a single PASS line when it holds (run with -s or check captured
output). The oracles here are independent re-derivations: exhaustive
enumeration, closed forms, and per-coordinate BFS distances.
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dkcsp.analysis import (
    base_for_graph,
    base_schoening,
    markov_simulate,
    reach_probability,
    solve_lambda,
)
from dkcsp.cli import main
from dkcsp.colorgraph import (
    complete,
    directed_cycle,
    hypercube,
    profile,
)
from dkcsp.covercode import build_code
from dkcsp.formula import brute_force_solve, evaluate, generate_random
from dkcsp.search import det_solve
from dkcsp.volume import ball_volume, select_radius, shell_counts

from cover_oracle import verify_cover
from paper_oracle import (
    assignment_distance,
    graph_searchball,
    lower_bound,
    success_probability_identity,
    upper_bound,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from speedup_bench import family  # noqa: E402


def _pass(num, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num} ({label}): PASS{suffix}")


def ceil3(x):
    """Round up at the third decimal, the display convention for upper bounds."""
    return math.ceil(x * 1000 - 1e-9) / 1000


def node_bound(k, delta, r):
    return sum((k * delta) ** i for i in range(r + 1))


def test_criterion_1_table_reproduction(capsys):
    expected = {
        (2, 3): (1.334, 1.5, 1.5),
        (3, 3): (2.0, 2.25, 2.077),
        (5, 4): (3.75, 4.0, 3.754),
    }
    for (d, k), (want_sch, want_det, want_cyc) in expected.items():
        rc = main(["predict", "--d", str(d), "--k", str(k)])
        out = capsys.readouterr().out
        assert rc == 0
        printed = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("schoening", "det-complete", "det-cycle"):
                printed[parts[0]] = float(parts[1])
        for name, want in [("schoening", want_sch), ("det-complete", want_det),
                           ("det-cycle", want_cyc)]:
            got = ceil3(printed[name])
            assert abs(got - want) <= 5e-4, f"(d,k)=({d},{k}) {name}: {got} vs {want}"
    with capsys.disabled():
        _pass(1, "table reproduction", "9 entries within 5e-4")


def test_criterion_2_deterministic_oracle_equivalence(capsys):
    start = time.time()
    rng = random.Random(20240901)
    count = 0
    per_cell = 26
    for d in (2, 3, 4):
        for k in (2, 3):
            for n in range(max(2, k), 9):
                for i in range(per_cell):
                    m = rng.randint(0, 30)
                    planted = None
                    if i % 2 == 0:
                        planted = tuple(rng.randint(1, d) for _ in range(n))
                    f = generate_random(n, d, k, m, rng.getrandbits(32), planted)
                    oracle = brute_force_solve(f)
                    for g in (complete(d), directed_cycle(d)):
                        result = det_solve(f, g, block_cap=4096)
                        assert (result.status == "sat") == (oracle is not None), (
                            f"disagreement on d={d} k={k} n={n} m={m} graph={g.name}"
                        )
                        if result.status == "sat":
                            assert evaluate(f, result.assignment)[0]
                        # criterion 7, first half: per-ball branching bound
                        code = build_code(g, n, k, 4096)
                        bound = node_bound(k, profile(g).delta, code.radius)
                        assert result.stats.max_ball_nodes <= bound
                    count += 1
    elapsed = time.time() - start
    assert count >= 1000
    assert elapsed < 300
    with capsys.disabled():
        _pass(2, "deterministic solver vs oracle", f"{count} instances, {elapsed:.0f}s")


def test_criterion_3_ball_search_oracle(capsys):
    start = time.time()
    rng = random.Random(77)
    graph_pool = [complete(2), complete(3), complete(4),
                  directed_cycle(2), directed_cycle(3), directed_cycle(4),
                  hypercube(2)]
    max_n = {2: 8, 3: 7, 4: 6}
    checked = 0
    while checked < 510:
        g = graph_pool[checked % len(graph_pool)]
        n = rng.randint(2, max_n[g.d])
        k = rng.randint(2, min(3, n))
        m = rng.randint(0, 4 * n)
        planted = None
        if checked % 3 == 0:
            planted = tuple(rng.randint(1, g.d) for _ in range(n))
        f = generate_random(n, g.d, k, m, rng.getrandbits(32), planted)
        center = tuple(rng.randint(1, g.d) for _ in range(n))
        r = rng.randint(0, 3)

        found, stats = graph_searchball(f, g, center, r)

        # oracle: enumerate the ball by distance and test every member
        oracle_hit = None
        for point in itertools.product(range(1, g.d + 1), repeat=n):
            if assignment_distance(g, center, point) <= r and evaluate(f, point)[0]:
                oracle_hit = point
                break
        assert (found is None) == (oracle_hit is None), (
            f"ball search disagreement: {g.name}(d={g.d}) n={n} r={r}"
        )
        if found is not None:
            assert evaluate(f, found)[0]
            assert assignment_distance(g, center, found) <= r
        # criterion 7, first half: branching bound per searched ball
        assert stats.nodes_visited <= node_bound(k, profile(g).delta, r)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 120
    with capsys.disabled():
        _pass(3, "ball search vs enumeration", f"{checked} triples, {elapsed:.0f}s")


def test_criterion_4_volume_exactness(capsys):
    graphs = [complete(2), complete(3), complete(4),
              directed_cycle(2), directed_cycle(3), directed_cycle(4),
              hypercube(1), hypercube(2)]
    for g in graphs:
        p = profile(g)
        for n in range(0, 7):
            table = shell_counts(p, n)
            enumerated = [0] * (p.s * n + 1)
            center = tuple(1 for _ in range(n))
            for point in itertools.product(range(1, g.d + 1), repeat=n):
                enumerated[assignment_distance(g, center, point)] += 1
            assert table == tuple(enumerated)
            assert sum(table) == g.d**n
    for g in graphs:
        p = profile(g)
        for x in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)):
            for n in range(0, 9):
                counts = shell_counts(p, n)
                lhs = sum(t * x**r for r, t in enumerate(counts))
                rhs = sum(d_i * x**i for i, d_i in enumerate(p.counts)) ** n
                assert lhs == rhs
    with capsys.disabled():
        _pass(4, "volume exactness", "8 graphs, n<=6 enumerated, identity n<=8")


def test_criterion_5_bound_sandwich(capsys):
    for d in (2, 3, 4):
        p_c = profile(complete(d))
        p_y = profile(directed_cycle(d))
        for x in (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)):
            for n in range(0, 11):
                for p in (p_c, p_y):
                    r, low = lower_bound(p, n, x)
                    vol = ball_volume(p, n, r)
                    assert low <= vol <= upper_bound(p, n, r, x)
    with capsys.disabled():
        _pass(5, "bound sandwich", "d in 2..4, n<=10, three x values")


def test_criterion_6_covering_codes(capsys):
    start = time.time()
    builds = [
        (complete(2), 10, 3, 1 << 10),
        (complete(2), 13, 3, 1 << 7),
        (complete(3), 7, 2, 81),
        (complete(4), 6, 3, 4**6),
        (directed_cycle(3), 8, 3, 3**8),
        (directed_cycle(3), 6, 3, 27),
        (directed_cycle(4), 6, 3, 4**3),
        (hypercube(2), 5, 3, 4**5),
        (hypercube(3), 4, 3, 8**4),
    ]
    for g, n, k, cap in builds:
        p = profile(g)
        code = build_code(g, n, k, cap)
        assert g.d**n <= 10**6
        assert verify_cover(code), f"coverage failed: {g.name}(d={g.d}) n={n} cap={cap}"
        vol = ball_volume(p, n, code.radius)
        assert len(code.codewords) * vol >= g.d**n
        x = Fraction(1, k * p.delta)
        for size, block_len in zip(code.block_code_sizes, code.blocks):
            r_b = select_radius(p, block_len, x.numerator, x.denominator)
            ground = g.d**block_len
            block_vol = ball_volume(p, block_len, r_b)
            assert size <= (1 + math.log(ground)) * ground / block_vol + 1e-9
    elapsed = time.time() - start
    assert elapsed < 180
    with capsys.disabled():
        _pass(6, "covering codes", f"{len(builds)} builds verified, {elapsed:.0f}s")


def test_criterion_7_branching_bound_and_speedup(capsys, k3_block_picks):
    # first half (per-ball node bound) is asserted on every ball searched in
    # criteria 2 and 3; re-checked here on the speedup_bench family
    start = time.time()
    d, k, n = 3, 3, 9
    cap = 3**9
    # the 3^9 blocks come from the session build that test_covercode shares
    with k3_block_picks():
        bound = {
            g.name: node_bound(k, profile(g).delta, build_code(g, n, k, cap).radius)
            for g in (complete(d), directed_cycle(d))
        }
        totals = {"complete": 0, "cycle": 0}
        solves = 0
        for m, count, seed in ((260, 10, 424242), (350, 6, 515151)):
            for f in family(d, k, n, m, count, seed):
                for g in (complete(d), directed_cycle(d)):
                    totals[g.name] += det_solve(f, g, block_cap=cap).stats.nodes_visited
                    solves += 1
        for m, count, seed in ((260, 4, 616161),):
            rng = random.Random(seed)
            for _ in range(count):
                f = generate_random(n, d, k, m, rng.getrandbits(32))
                for g in (complete(d), directed_cycle(d)):
                    result = det_solve(f, g, block_cap=cap)
                    assert result.stats.max_ball_nodes <= bound[g.name]
    assert totals["cycle"] < totals["complete"], totals
    # exact totals: a kernel rewrite must keep the search order
    assert totals == {"complete": 105393, "cycle": 79201}, totals
    elapsed = time.time() - start
    with capsys.disabled():
        _pass(
            7,
            "branching bound and cycle speedup",
            f"cycle nodes {totals['cycle']} < complete {totals['complete']}, "
            f"{solves} family solves, {elapsed:.0f}s",
        )


def test_criterion_8_markov_lambda_suite(capsys):
    start = time.time()
    for d in range(2, 9):
        for k in range(2, 9):
            sol = solve_lambda(d, k)
            assert sol.residual <= 1e-12
            for n in range(0, 21):
                lhs, rhs = success_probability_identity(d, k, n)
                assert abs(lhs - rhs) <= 1e-9 * rhs
    target = reach_probability(3, 3, 2)
    assert abs(target - 0.133975) < 1e-6
    freq, se = markov_simulate(3, 3, 2, 10_000, 100_000, 20240901)
    assert abs(freq - target) <= 3 * se + 0.005, (freq, target, se)
    elapsed = time.time() - start
    assert elapsed < 60
    with capsys.disabled():
        _pass(8, "markov/lambda suite", f"freq {freq:.4f} vs {target:.4f}, {elapsed:.0f}s")


def test_criterion_9_analytic_substitution(capsys):
    # asymptotic exponents are not wall-clock measurable at desk scale; the
    # bases are pinned analytically (criterion 1) and the direction of the
    # speedup empirically (criterion 7)
    for d, k in [(2, 3), (3, 3), (5, 4)]:
        sch = base_schoening(d, k)
        cyc = base_for_graph(profile(directed_cycle(d)), k)
        det = base_for_graph(profile(complete(d)), k)
        assert sch == Fraction(d * (k - 1), k)
        assert det == Fraction(d * k, k + 1)
        assert cyc == sch * Fraction(k**d, k**d - 1)
        assert sch <= cyc <= det
    with capsys.disabled():
        _pass(9, "analytic substitution for asymptotics", "bases pinned, no wall-clock claims")
