import hashlib
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dkcsp import covercode
from dkcsp.colorgraph import (
    assignment_distance,
    complete,
    directed_cycle,
    from_edges,
    hypercube,
    profile,
)
from dkcsp.covercode import (
    CoveringCode,
    ProductCodewords,
    build_code,
    format_code_file,
    greedy_cover,
    product_code,
)
from dkcsp.volume import ball_volume, select_radius

from cover_oracle import first_uncovered, verify_cover


# out-profile (1, 2, 1) for every color, but color 1 has in-degree 3: the
# dual profiles are not uniform
NON_UNIFORM_DUAL = from_edges(4, [(1, 2), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])


def enumerate_cover_check(g, codewords, radius, n):
    """Independent coverage check by full enumeration."""
    for point in itertools.product(range(1, g.d + 1), repeat=n):
        if all(assignment_distance(g, cw, point) > radius for cw in codewords):
            return point
    return None


class TestGreedyCover:
    def test_cube_radius_one(self):
        g = complete(2)
        code = greedy_cover(g, 3, 1)
        assert code == ((1, 1, 1), (2, 2, 2))
        assert enumerate_cover_check(g, code, 1, 3) is None
        assert len(code) <= (1 + math.log(8)) * 8 / 4

    def test_radius_covers_everything(self):
        g = directed_cycle(3)
        assert greedy_cover(g, 2, profile(g).s * 2) == ((1, 1),)

    def test_radius_zero_all_points(self):
        g = complete(2)
        code = greedy_cover(g, 2, 0)
        assert code == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_block_zero(self):
        assert greedy_cover(complete(2), 0, 1) == ((),)

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="cap"):
            greedy_cover(complete(2), 12, 1, cap=1000)

    def test_disconnected_rejected(self):
        g = from_edges(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            greedy_cover(g, 2, 1)

    @pytest.mark.parametrize("g,n,r", [
        (complete(3), 3, 1),
        (directed_cycle(3), 3, 2),
        (directed_cycle(4), 3, 2),
        (hypercube(2), 3, 2),
    ], ids=["complete3", "cycle3", "cycle4", "hypercube2"])
    def test_coverage_and_size_bound(self, g, n, r):
        code = greedy_cover(g, n, r)
        assert enumerate_cover_check(g, code, r, n) is None
        size = g.d**n
        vol = ball_volume(profile(g), n, r)
        assert len(code) <= (1 + math.log(size)) * size / vol + 1e-9

    def test_deterministic(self):
        a = greedy_cover(directed_cycle(3), 4, 2)
        b = greedy_cover(directed_cycle(3), 4, 2)
        assert a == b

    def test_out_regular_but_not_in_regular(self):
        # uniform out-profile (1,2,1) but vertex 1 has in-degree 3: the size
        # guarantee's premise fails, yet coverage must still hold
        g = NON_UNIFORM_DUAL
        assert profile(g).counts == (1, 2, 1)
        for r in (1, 2):
            code = greedy_cover(g, 2, r)
            assert enumerate_cover_check(g, code, r, 2) is None

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            greedy_cover(complete(3), -1, 1)

    @pytest.mark.parametrize("g,r,count,last,digest", [
        (complete(3), 2, 307, (1, 1, 3, 3, 3, 3, 3, 2, 1),
         "1d0db19bb4dc8c84e539cec700a6d4e763fd70a720142e97c342d2fca2823a8e"),
        (directed_cycle(3), 3, 252, (2, 3, 3, 1, 1, 3, 2, 2, 3),
         "d7d545c07c41ac26098b5f34daf2b1cab42be7e44918d89d0089aaef7c2701a8"),
    ], ids=["complete3", "cycle3"])
    def test_det_sat_block_codes_pinned(self, g, r, count, last, digest):
        # the 9-coordinate blocks of the n=18, cap 19683 codes; values are
        # those of the eager greedy that recounted every gain per pick
        assert select_radius(profile(g), 9, Fraction(1, 3 * profile(g).delta)) == r
        code = greedy_cover(g, 9, r)
        assert len(code) == count
        assert code[0] == (1,) * 9
        assert code[-1] == last
        assert hashlib.sha256(repr(code).encode()).hexdigest() == digest


def eager_greedy(g, n, r):
    """The greedy as it was before the incremental update: recount every gain per pick."""
    mat = covercode._finite_distance_matrix(g)
    r_eff = min(r, profile(g).s * n)
    uncovered = np.ones(g.d**n, dtype=np.int64)
    code = []
    while uncovered.any():
        gains = covercode._coverage_gains(mat, n, g.d, r_eff, uncovered)
        best = int(np.argmax(gains))
        center = covercode._index_to_point(best, n, g.d)
        code.append(center)
        uncovered[covercode._dist_from_center(mat, center) <= r_eff] = 0
    return tuple(code)


DIFFERENTIAL_GRAPHS = [
    complete(2), complete(3), directed_cycle(3), directed_cycle(4), hypercube(2), NON_UNIFORM_DUAL,
]


class TestIncrementalGreedy:
    @given(st.data())
    def test_matches_eager_greedy(self, data):
        g = data.draw(st.sampled_from(DIFFERENTIAL_GRAPHS), label="graph")
        n = data.draw(st.integers(1, 5), label="n")
        r = data.draw(st.integers(0, profile(g).s * n), label="r")
        assert greedy_cover(g, n, r) == eager_greedy(g, n, r)

    @pytest.mark.parametrize("g", DIFFERENTIAL_GRAPHS, ids=lambda g: f"{g.name}{g.d}")
    def test_every_radius_at_largest_block(self, g):
        for r in range(profile(g).s * 5 + 1):
            assert greedy_cover(g, 5, r) == eager_greedy(g, 5, r), r

    def test_sliced_update_matches(self, monkeypatch):
        whole = greedy_cover(directed_cycle(3), 6, 3)
        monkeypatch.setattr(covercode, "_UPDATE_PAIRS", 1)
        assert greedy_cover(directed_cycle(3), 6, 3) == whole

    def _count_gain_passes(self, monkeypatch):
        calls = []
        real = covercode._coverage_gains

        def counted(mat, n, d, r, weights):
            calls.append(n)
            return real(mat, n, d, r, weights)

        monkeypatch.setattr(covercode, "_coverage_gains", counted)
        return calls

    @pytest.mark.parametrize("g", [complete(3), directed_cycle(3), hypercube(2)], ids=lambda g: g.name)
    def test_uniform_dual_runs_no_dp_in_the_pick_loop(self, monkeypatch, g):
        calls = self._count_gain_passes(monkeypatch)
        code = greedy_cover(g, 5, 2)
        assert len(code) > 1
        assert calls == [5]  # the final coverage check only

    def test_non_uniform_dual_recounts_per_pick(self, monkeypatch):
        calls = self._count_gain_passes(monkeypatch)
        code = greedy_cover(NON_UNIFORM_DUAL, 3, 1)
        assert len(calls) == len(code) + 1


class TestCoverageGains:
    @pytest.mark.parametrize("g,n,r", [
        (complete(2), 2, 1),
        (complete(3), 2, 2),
        (directed_cycle(3), 3, 2),
        (directed_cycle(4), 2, 3),
        (hypercube(2), 2, 2),
    ], ids=["complete2", "complete3", "cycle3", "cycle4", "hypercube2"])
    def test_matches_brute_force_counting(self, g, n, r):
        import numpy as np

        from dkcsp.covercode import _coverage_gains, _finite_distance_matrix

        rng = __import__("random").Random(5)
        points = list(itertools.product(range(1, g.d + 1), repeat=n))
        weights = np.array([rng.randint(0, 1) for _ in points], dtype=np.int64)
        gains = _coverage_gains(_finite_distance_matrix(g), n, g.d, r, weights)
        for idx, center in enumerate(points):
            expected = sum(
                w
                for w, point in zip(weights.tolist(), points)
                if assignment_distance(g, center, point) <= r
            )
            assert gains[idx] == expected


class TestProductCode:
    def test_single_codeword_blocks(self):
        g = directed_cycle(3)
        s = profile(g).s
        full = greedy_cover(g, 2, s * 2)
        code = product_code(g, [(full, s * 2), (full, s * 2)])
        assert tuple(code.codewords) == ((1, 1, 1, 1),)
        assert code.radius == s * 4

    def test_cardinality(self):
        g = complete(2)
        c2 = (((1,), (2,)), 0)
        c3 = (((1, 1), (1, 2), (2, 1)), 1)
        code = product_code(g, [c2, c3])
        assert len(code.codewords) == 6
        assert code.blocks == (1, 2)

    def test_product_of_covers_covers(self):
        g = directed_cycle(3)
        block = greedy_cover(g, 2, 1)
        code = product_code(g, [(block, 1), (block, 1)])
        assert verify_cover(code)
        assert enumerate_cover_check(g, code.codewords, code.radius, code.n) is None

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            product_code(complete(2), [((), 1)])


def eager_product(codes):
    """The product as it was materialised before ProductCodewords: one tuple per codeword."""
    return tuple(tuple(itertools.chain.from_iterable(parts)) for parts in itertools.product(*codes))


def block_codes(width):
    codeword = st.tuples(*[st.integers(1, 3)] * width)
    return st.lists(codeword, min_size=1, max_size=5).map(tuple)


class TestProductCodewords:
    """The lazy product against the eager itertools.product tuple."""

    @pytest.mark.parametrize("g,count,digest", [
        (complete(3), 94249, "96710ac3f1b297908ecee6649a8dcac7b9b6414bc4c91562332b0764005d6147"),
        (directed_cycle(3), 63504, "748d7f97fdcf5a46a730e3877470e3223bd417012b9b9f6c1feb7d5c1ff395e4"),
    ], ids=["complete3", "cycle3"])
    def test_det_sat_codes_pinned(self, g, count, digest):
        # the n=18, cap 19683 codes; values are those of the eager product
        codewords = tuple(build_code(g, 18, 3, 19683).codewords)
        assert len(codewords) == count
        assert hashlib.sha256(repr(codewords).encode()).hexdigest() == digest

    @given(st.data())
    def test_matches_eager_product(self, data):
        widths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3), label="widths")
        codes = tuple(data.draw(block_codes(w), label="code") for w in widths)
        lazy, eager = ProductCodewords(codes), eager_product(codes)
        assert len(lazy) == len(eager)
        assert tuple(lazy) == eager
        for i in range(-len(eager), len(eager)):
            assert lazy[i] == eager[i]
        for i in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                lazy[i]
        bound = st.one_of(st.none(), st.integers(-len(eager) - 3, len(eager) + 3))
        for _ in range(3):
            a, b, c, e = (data.draw(bound, label="bound") for _ in range(4))
            part, eager_part = lazy[a:b], eager[a:b]
            assert isinstance(part, ProductCodewords)
            assert len(part) == len(eager_part)
            assert tuple(part) == eager_part
            every = range(-len(part), len(part))
            assert [part[i] for i in every] == [eager_part[i] for i in every]
            assert tuple(part[c:e]) == eager_part[c:e]
            assert len(part[c:e]) == len(eager_part[c:e])

    def test_no_blocks_is_one_empty_codeword(self):
        lazy = ProductCodewords(())
        assert tuple(lazy) == eager_product(()) == ((),)
        assert tuple(lazy[1:]) == ()

    @pytest.mark.parametrize("step", [2, -1, 0])
    def test_strided_slice_rejected(self, step):
        lazy = ProductCodewords((((1,), (2,)), ((1,), (2,), (3,))))
        with pytest.raises(ValueError):
            lazy[::step]

    def test_chunk_pickles_as_block_codes_and_range(self):
        code = build_code(complete(3), 18, 3, 19683)
        whole = len(pickle.dumps(code.codewords, pickle.HIGHEST_PROTOCOL))
        sizes = []
        for start, stop in [(0, 1), (0, 94249), (5000, 17000), (94248, 94249), (40000, 40000)]:
            chunk = code.codewords[start:stop]
            blob = pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL)
            back = pickle.loads(blob)
            assert (back.start, back.stop) == (start, stop)
            assert back.codes == code.codewords.codes
            assert tuple(back) == tuple(chunk)
            sizes.append(len(blob))
        # only the range's integers differ in size
        assert max(sizes) - min(sizes) <= 8
        assert max(sizes) <= whole + 8


class TestBuildCode:
    def test_small_cube(self):
        g = complete(2)
        code = build_code(g, 3, 3, block_cap=8)
        assert code.blocks == (3,)
        assert code.radius == select_radius(profile(g), 3, Fraction(1, 3))
        assert verify_cover(code)

    def test_n_zero(self):
        code = build_code(complete(2), 0, 3)
        assert tuple(code.codewords) == ((),)
        assert code.radius == 0
        assert verify_cover(code)

    def test_two_blocks(self):
        g = directed_cycle(3)
        code = build_code(g, 6, 3, block_cap=27)
        assert code.blocks == (3, 3)
        r_block = select_radius(profile(g), 3, Fraction(1, 3))
        assert code.per_block_radius == (r_block, r_block)
        assert code.radius == 2 * r_block
        assert verify_cover(code)

    def test_uneven_blocks(self):
        g = complete(3)
        code = build_code(g, 7, 2, block_cap=81)
        assert sorted(code.blocks, reverse=True) == list(code.blocks)
        assert sum(code.blocks) == 7
        assert max(code.blocks) <= 4
        assert verify_cover(code)

    def test_counting_lower_bound(self):
        for g, n in [(complete(3), 5), (directed_cycle(3), 5), (hypercube(2), 4)]:
            code = build_code(g, n, 3, block_cap=256)
            vol = ball_volume(profile(g), n, code.radius)
            assert len(code.codewords) * vol >= g.d**n

    def test_deterministic(self):
        a = build_code(directed_cycle(4), 5, 3, block_cap=64)
        b = build_code(directed_cycle(4), 5, 3, block_cap=64)
        assert tuple(a.codewords) == tuple(b.codewords)

    def test_cap_too_small(self):
        with pytest.raises(ValueError, match="cap"):
            build_code(complete(3), 4, 3, block_cap=2)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            build_code(complete(3), -1, 3)


class TestVerifyCover:
    def test_classic_cube_cover(self):
        g = complete(2)
        code = CoveringCode(g, 3, 1, ((1, 1, 1), (2, 2, 2)), (3,), (1,), (2,))
        assert verify_cover(code)

    def test_missing_ball_with_witness(self):
        g = complete(2)
        code = CoveringCode(g, 3, 1, ((1, 1, 1),), (3,), (1,), (1,))
        assert not verify_cover(code)
        witness = first_uncovered(code)
        assert witness is not None
        assert assignment_distance(g, (1, 1, 1), witness) > 1

    def test_huge_radius(self):
        g = directed_cycle(3)
        code = CoveringCode(g, 4, profile(g).s * 4, ((2, 2, 2, 2),), (4,), (profile(g).s * 4,), (1,))
        assert verify_cover(code)

    def test_cap(self):
        code = build_code(complete(2), 3, 3)
        with pytest.raises(ValueError, match="cap"):
            verify_cover(code, cap=4)


class TestCodeFile:
    def test_format(self):
        g = complete(2)
        code = CoveringCode(g, 3, 1, ((1, 1, 1), (2, 2, 2)), (3,), (1,), (2,))
        assert format_code_file(code) == "code 2 3 1 2\n1 1 1\n2 2 2\n"


class TestResultChecks:
    """The result-guarding checks are exceptions, so they also run under python -O."""

    def test_counting_bound_violation_raises(self, monkeypatch):
        monkeypatch.setattr(covercode, "ball_volume", lambda p, n, r: 1)
        with pytest.raises(RuntimeError, match="counting bound"):
            build_code.__wrapped__(complete(3), 4, 3, 81)

    def test_greedy_guarantee_violation_raises(self, monkeypatch):
        monkeypatch.setattr(covercode, "ball_volume", lambda p, n, r: 10**9)
        with pytest.raises(RuntimeError, match="guarantee"):
            greedy_cover(complete(3), 4, 1)

    @pytest.mark.parametrize("g,r", [(complete(3), 2), (directed_cycle(3), 3)], ids=["complete3", "cycle3"])
    def test_block_cover_check_rejects_missing_codeword(self, g, r):
        mat = covercode._finite_distance_matrix(g)
        code = greedy_cover(g, 9, r)
        covercode._check_block_cover(mat, 9, g.d, r, code)
        # the last pick covered points no earlier codeword reaches
        with pytest.raises(RuntimeError, match="outside every") as err:
            covercode._check_block_cover(mat, 9, g.d, r, code[:-1])
        missing = tuple(int(t) for t in str(err.value).split("(")[1].split(")")[0].split(","))
        assert all(assignment_distance(g, cw, missing) > r for cw in code[:-1])
        assert assignment_distance(g, code[-1], missing) <= r
