import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dkcsp.colorgraph import (
    ColorGraph,
    DistanceProfile,
    complete,
    directed_cycle,
    from_edges,
    hypercube,
    parse_graph_file,
    profile,
)

from dkcsp import covercode
from dkcsp.covercode import build_code
from dkcsp.volume import shell_counts

from paper_oracle import assignment_distance, color_distance


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
        assert color_distance(g, 1, 4) == 3
        assert color_distance(g, 4, 1) == 1

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

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(1,4\) out of range 1..3"):
            from_edges(3, [(1, 4)])

    def test_hypercube_needs_a_dimension(self):
        with pytest.raises(ValueError, match="ell >= 1"):
            hypercube(0)


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
        assert color_distance(g, 1, 3) == 2
        assert color_distance(g, 3, 1) == 1

    def test_complete_all_one(self):
        g = complete(4)
        for c1, c2 in itertools.permutations(range(1, 5), 2):
            assert color_distance(g, c1, c2) == 1

    def test_random_digraphs_match_bfs_oracle(self):
        # each BFS stops once every color is reached; sparse draws leave
        # some graphs disconnected, their unreached colors None
        rng = random.Random(23)
        disconnected = 0
        for _ in range(300):
            d, p = rng.randint(1, 9), rng.uniform(0.05, 0.6)
            g = from_edges(d, [(u, v) for u in range(1, d + 1) for v in range(1, d + 1)
                               if u != v and rng.random() < p])
            for src in range(1, d + 1):
                oracle = bfs_distances(g.out, src)
                assert g.distances[src - 1] == tuple(oracle.get(dst) for dst in range(1, d + 1))
            disconnected += any(None in row for row in g.distances)
        assert 0 < disconnected < 300

    def test_disconnected_has_none(self):
        g = from_edges(3, [(1, 2)])
        assert color_distance(g, 1, 2) == 1
        assert color_distance(g, 2, 1) is None
        assert color_distance(g, 1, 3) is None


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
        g = parse_graph_file(text, 3)
        assert g.out == directed_cycle(3).out

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_graph_file("1 2\n", 3)

    def test_comment_only_is_missing_header(self):
        with pytest.raises(ValueError, match="missing 'g <d>' header"):
            parse_graph_file("c no graph here\n", 3)

    def test_comment_before_header_skipped(self):
        assert parse_graph_file("c a cycle\ng 3\n1 2\n2 3\n3 1\n", 3).out == directed_cycle(3).out

    def test_bad_edge(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_graph_file("g 2\n1 2 3\n", 2)

    @pytest.mark.parametrize("text,message", [
        ("g 3\n1 x\n", "line 2: non-integer token in edge line '1 x'"),
        ("c header next\ng three\n", "line 2: non-integer color count in header 'g three'"),
        ("g 3\n1 2\n2.5 3\n", "line 3: non-integer token in edge line '2.5 3'"),
    ], ids=["edge", "header", "float-edge"])
    def test_non_integer_names_its_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_graph_file(text, 3)
        assert str(err.value) == message

    # int() reads each of the first three: "1_0" as 10, "+1" as 1 and Arabic-Indic "٢"
    # as 2; the last is ASCII digits, but more than int() reads (4,300 by default)
    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0662", "1" * 5000],
                             ids=["underscore", "plus", "arabic-indic", "over-int-digits"])
    def test_only_ascii_decimal_digits(self, token):
        with pytest.raises(ValueError) as err:
            parse_graph_file(f"g 3\n1 {token}\n", 3)
        assert str(err.value) == f"line 2: non-integer token in edge line '1 {token}'"
        with pytest.raises(ValueError) as err:
            parse_graph_file(f"g {token}\n1 2\n", 3)
        assert str(err.value) == f"line 1: non-integer color count in header 'g {token}'"

    def test_header_checked_before_any_edge(self):
        # a 10-byte file naming 2,000,000 colors is refused at its header,
        # before a neighbor set is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                parse_graph_file("g 2000000\n1 2\n", 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "line 1: graph file has 2000000 colors, expected 3"
        assert peak < 1 << 20

    @pytest.mark.parametrize("edge,message", [
        ("1 5", "edge (1,5) out of range 1..3"),
        ("1 1", "self-loop at color 1"),
    ], ids=["out-of-range", "self-loop"])
    def test_edge_errors_name_their_line(self, edge, message):
        with pytest.raises(ValueError) as err:
            parse_graph_file(f"g 3\n{edge}\n2 3\n", 3)
        assert str(err.value) == f"line 2: {message}"


class TestRecords:
    """Graphs and profiles are lru_cache keys: equal values hash equal and
    share cache entries. Their constructor checks raise, so they also run
    under python -O."""

    def test_equal_graphs_share_a_code(self):
        g = ColorGraph(3, directed_cycle(3).out, name="cycle")
        assert g is not directed_cycle(3)
        assert g == directed_cycle(3) and hash(g) == hash(directed_cycle(3))
        build_code(directed_cycle(3), 6, 3, 81)
        misses = covercode._shared_picks.cache_info().misses
        build_code(g, 6, 3, 81)
        assert covercode._shared_picks.cache_info().misses == misses  # every block's picks reused
        assert ColorGraph(3, g.out) != g  # the name is part of the value
        assert ColorGraph(3, g.out).name == "custom"

    def test_equal_profiles_share_shell_counts(self):
        p = DistanceProfile(3, (1, 1, 1))
        assert p == profile(directed_cycle(3)) and hash(p) == hash(profile(directed_cycle(3)))
        assert shell_counts(p, 7) is shell_counts(profile(directed_cycle(3)), 7)
        assert p != DistanceProfile(4, (1, 1, 1))
        assert repr(p) == "DistanceProfile(d=3, counts=(1, 1, 1))"

    def test_distances_computed_once(self):
        g = from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert g.distances is g.distances
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.distances == g.distances

    def test_distance_cache_is_not_part_of_the_value(self):
        read, fresh = (ColorGraph(3, directed_cycle(3).out, "cycle") for _ in range(2))
        assert read.distances == ((0, 1, 2), (2, 0, 1), (1, 2, 0))
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert repr(directed_cycle(3)) == "ColorGraph(d=3, out=((2,), (3,), (1,)), name='cycle')"

    @pytest.mark.parametrize("args,match", [
        ((0, ()), "at least one color"),
        ((2, ((2,),)), "expected 2 out-neighbor lists"),
        ((3, ((3, 2), (1,), (1,))), "sorted and distinct"),
        ((3, ((2, 2), (1,), (1,))), "sorted and distinct"),
        ((2, ((3,), (1,))), "neighbor 3 of color 1 out of range"),
        ((2, ((1,), (1,))), "self-loop at color 1"),
    ])
    def test_graph_checks_raise(self, args, match):
        with pytest.raises(ValueError, match=match):
            ColorGraph(*args)

    @pytest.mark.parametrize("args,match", [
        ((3, ()), "start with d_0 = 1"),
        ((3, (2, 1)), "start with d_0 = 1"),
        ((3, (1, 2, 0)), "trailing zeros"),
        ((3, (1, 2, 1)), "exceed color count"),
        ((9, (1, 1, 2)), "violates d_2 <= delta"),
    ])
    def test_profile_checks_raise(self, args, match):
        with pytest.raises(ValueError, match=match):
            DistanceProfile(*args)
