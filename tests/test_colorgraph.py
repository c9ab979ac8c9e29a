import itertools
import random

import pytest
from hypothesis import given, strategies as st

from dkcsp.colorgraph import (
    assignment_distance,
    complete,
    directed_cycle,
    from_edges,
    hypercube,
    parse_graph_file,
    profile,
)


def bfs_distances(out_lists, src):
    """Independent BFS oracle over 1-indexed out-neighbor lists."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in out_lists[u - 1]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


ALL_GRAPHS = [complete(2), complete(3), complete(4), directed_cycle(2),
              directed_cycle(3), directed_cycle(4), hypercube(1), hypercube(2), hypercube(3)]


class TestBuilders:
    def test_complete_profiles(self):
        assert profile(complete(3)).counts == (1, 2)
        assert profile(complete(2)).counts == (1, 1)
        assert profile(complete(5)).delta == 4

    def test_cycle_profiles(self):
        p = profile(directed_cycle(3))
        assert p.counts == (1, 1, 1) and p.delta == 1 and p.s == 2
        assert profile(directed_cycle(2)).counts == profile(complete(2)).counts
        assert profile(directed_cycle(4)).counts == (1, 1, 1, 1)

    def test_cycle_asymmetry(self):
        g = directed_cycle(4)
        assert g.distance(1, 4) == 3
        assert g.distance(4, 1) == 1

    def test_hypercube_1_is_complete_2(self):
        assert hypercube(1).out == complete(2).out

    def test_hypercube_2(self):
        p = profile(hypercube(2))
        assert p.counts == (1, 2, 1) and p.delta == 2 and p.s == 2

    def test_hypercube_3_profile_matches_bfs(self):
        g = hypercube(3)
        counts = [0, 0, 0, 0]
        for v, dist in bfs_distances(g.out, 1).items():
            counts[dist] += 1
        assert tuple(counts) == (1, 3, 3, 1)
        assert profile(g).counts == (1, 3, 3, 1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            complete(1)
        with pytest.raises(ValueError):
            directed_cycle(1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edges(2, [(1, 1)])


class TestDistances:
    @pytest.mark.parametrize("g", ALL_GRAPHS, ids=lambda g: f"{g.name}{g.d}")
    def test_matches_bfs_oracle(self, g):
        mat = g.distances
        for src in range(1, g.d + 1):
            oracle = bfs_distances(g.out, src)
            for dst in range(1, g.d + 1):
                assert mat[src - 1][dst - 1] == oracle.get(dst)

    def test_cycle_walk(self):
        g = directed_cycle(3)
        assert g.distance(1, 3) == 2
        assert g.distance(3, 1) == 1

    def test_complete_all_one(self):
        g = complete(4)
        for c1, c2 in itertools.permutations(range(1, 5), 2):
            assert g.distance(c1, c2) == 1

    def test_disconnected_has_none(self):
        g = from_edges(3, [(1, 2)])
        assert g.distance(1, 2) == 1
        assert g.distance(2, 1) is None
        assert g.distance(1, 3) is None


class TestProfile:
    def test_path_graph_rejected(self):
        path = from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 2)])
        with pytest.raises(ValueError, match="not distance-regular"):
            profile(path)

    def test_disconnected_pair_of_cycles(self):
        g = from_edges(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        p = profile(g)
        assert p.counts == (1, 1)
        assert not p.spans_all_colors

    @pytest.mark.parametrize("g", ALL_GRAPHS, ids=lambda g: f"{g.name}{g.d}")
    def test_counts_bounded_by_powers(self, g):
        p = profile(g)
        for i, c in enumerate(p.counts):
            if i >= 1:
                assert c <= p.delta**i


class TestAssignmentDistance:
    def test_identity(self):
        for g in (complete(3), directed_cycle(4)):
            a = (1, 2, 3)
            assert assignment_distance(g, a, a) == 0

    def test_hamming_equivalence_exhaustive(self):
        g = complete(3)
        for a in itertools.product(range(1, 4), repeat=3):
            for b in itertools.product(range(1, 4), repeat=3):
                hamming = sum(1 for x, y in zip(a, b) if x != y)
                assert assignment_distance(g, a, b) == hamming

    def test_cycle_example(self):
        g = directed_cycle(3)
        assert assignment_distance(g, (1, 1), (3, 2)) == 3
        assert assignment_distance(g, (3, 2), (1, 1)) == 3

    def test_coordinatewise_bfs_oracle(self):
        rng = random.Random(11)
        for g in ALL_GRAPHS:
            for _ in range(20):
                n = rng.randint(1, 5)
                a = tuple(rng.randint(1, g.d) for _ in range(n))
                b = tuple(rng.randint(1, g.d) for _ in range(n))
                expected = sum(bfs_distances(g.out, x)[y] for x, y in zip(a, b))
                assert assignment_distance(g, a, b) == expected

    def test_infinite_rejected(self):
        g = from_edges(2, [(1, 2)])
        with pytest.raises(ValueError, match="unreachable"):
            assignment_distance(g, (2,), (1,))

    @given(st.integers(0, 2**31), st.sampled_from(ALL_GRAPHS))
    def test_triangle_inequality(self, seed, g):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        a, b, c = (
            tuple(rng.randint(1, g.d) for _ in range(n)) for _ in range(3)
        )
        ab = assignment_distance(g, a, b)
        bc = assignment_distance(g, b, c)
        ac = assignment_distance(g, a, c)
        assert ac <= ab + bc

    @given(st.integers(0, 2**31))
    def test_symmetric_for_undirected(self, seed):
        rng = random.Random(seed)
        g = rng.choice([complete(3), complete(4), hypercube(2)])
        n = rng.randint(1, 5)
        a = tuple(rng.randint(1, g.d) for _ in range(n))
        b = tuple(rng.randint(1, g.d) for _ in range(n))
        assert assignment_distance(g, a, b) == assignment_distance(g, b, a)


class TestGraphFile:
    def test_roundtrip(self):
        text = "g 3\n1 2\n2 3\n3 1\n"
        g = parse_graph_file(text)
        assert g.out == directed_cycle(3).out

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_graph_file("1 2\n")

    def test_bad_edge(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_graph_file("g 2\n1 2 3\n")
