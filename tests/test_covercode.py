import hashlib
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dkcsp import covercode
from dkcsp.colorgraph import (
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

from cover_oracle import (
    coverage_gains,
    dist_from_center,
    finite_distance_matrix,
    first_uncovered,
    verify_cover,
)
from paper_oracle import assignment_distance


# out-profile (1, 2, 1) for every color, but color 1 has in-degree 3: the
# dual profiles are not uniform
NON_UNIFORM_DUAL = from_edges(4, [(1, 2), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])


@pytest.fixture(autouse=True)
def fresh_codes():
    """Run each test as a fresh process would: no built code and no block picks,
    and leave none, so no picks a test altered outlive it."""
    build_code.cache_clear()
    yield
    build_code.cache_clear()


@pytest.fixture(scope="module")
def det_sat_codes(k3_block_picks):
    """The n=18, cap 19683 codes of complete(3) and cycle(3), each two equal
    3^9 blocks, built once for the module from the session's block picks,
    with every block's cover checked here once; the tests read them instead
    of rebuilding them."""
    build_code.cache_clear()
    with k3_block_picks():
        codes = {g: build_code(g, 18, 3, 19683) for g in (complete(3), directed_cycle(3))}
    build_code.cache_clear()
    for g, code in codes.items():
        block = code.codewords.codes[0]
        assert code.codewords.codes == (block, block)
        covercode._check_cover_by_balls(g, 9, code.radius // 2, block)
    return codes


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
        assert greedy_cover(directed_cycle(3), 4, 2) is a  # shared with _shared_picks
        build_code.cache_clear()
        assert greedy_cover(directed_cycle(3), 4, 2) == a

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
    def test_det_sat_block_codes_pinned(self, det_sat_codes, g, r, count, last, digest):
        # the 9-coordinate blocks of the n=18, cap 19683 codes; values are
        # those of the eager greedy that recounted every gain per pick
        assert select_radius(profile(g), 9, 1, 3 * profile(g).delta) == r
        assert det_sat_codes[g].radius == 2 * r
        code = det_sat_codes[g].codewords.codes[0]
        assert len(code) == count
        assert code[0] == (1,) * 9
        assert code[-1] == last
        assert hashlib.sha256(repr(code).encode()).hexdigest() == digest


def eager_greedy(g, n, r):
    """The greedy as it was before the incremental update: recount every gain per pick."""
    mat = finite_distance_matrix(g)
    r_eff = min(r, profile(g).s * n)
    uncovered = np.ones(g.d**n, dtype=np.int64)
    code = []
    while uncovered.any():
        gains = coverage_gains(mat, n, g.d, r_eff, uncovered)
        best = int(np.argmax(gains))
        center = covercode._index_to_point(best, n, g.d)
        code.append(center)
        uncovered[dist_from_center(mat, center) <= r_eff] = 0
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


def gain_updates(g, n, r):
    """d^n * Vol, the figure greedy_cover compares against _MAX_GAIN_UPDATES."""
    p = profile(g)
    return g.d**n * ball_volume(p, n, min(r, p.s * n))


class TestHandOff:
    """Picks made on demand, as the first-row search takes them, then handed
    off to code() at any pick, against the eager greedy."""

    @pytest.mark.parametrize("g,n,r", [
        (complete(3), 5, 1), (directed_cycle(3), 5, 2), (complete(4), 4, 1), (hypercube(2), 5, 2),
    ], ids=["complete3", "cycle3", "complete4", "hypercube2"])
    def test_picks_match_across_hand_off(self, g, n, r):
        eager = eager_greedy(g, n, r)
        for taken in (0, 1, 2, len(eager) // 2, len(eager)):
            build_code.cache_clear()
            picks = covercode._shared_picks(g, n, r)
            streamed = []
            for pick in itertools.islice(picks, taken):  # one at a time, as det_solve takes them
                streamed.append(pick)
            assert picks.picks == streamed, taken
            assert picks.code() == eager, taken
            assert tuple(picks) == eager, taken

    def test_resumed_picks_match(self):
        g = directed_cycle(3)
        picks = covercode._shared_picks(g, 5, 2)
        head = list(itertools.islice(picks, 3))
        assert covercode._shared_picks(g, 5, 2) is picks
        assert len(picks.picks) == 3
        assert next(iter(picks)) == (1,) * 5
        code = greedy_cover(g, 5, 2)
        assert code[:3] == tuple(head)
        assert list(picks) == list(code)
        build_code.cache_clear()
        assert covercode._shared_picks(g, 5, 2) is not picks


class TestFirstRow:
    """first_row: the radius and first |C_B| codewords of build_code's code,
    each pick of the last block's greedy made only when the row reaches it."""

    @pytest.mark.parametrize("g,n,cap,blocks", [
        (complete(3), 0, 81, ()),
        (complete(3), 6, 729, (6,)),
        (directed_cycle(3), 8, 81, (4, 4)),
        (directed_cycle(3), 10, 81, (4, 3, 3)),
        (complete(4), 5, 64, (3, 2)),
    ], ids=["n0", "one-block", "two-equal", "three-unequal", "complete4"])
    def test_matches_built_code(self, g, n, cap, blocks):
        radius, row = covercode.first_row(g, n, 3, cap)
        row = tuple(row)
        code = build_code(g, n, 3, cap)
        assert code.blocks == blocks
        assert radius == code.radius
        assert len(row) == (code.block_code_sizes[-1] if blocks else 1)
        assert row == tuple(code.codewords[: len(row)])

    def test_picks_made_as_the_row_is_read(self):
        g = complete(4)
        (head_size, head_r), (size, r) = covercode.plan_blocks(g, 5, 3, 64)
        _, row = covercode.first_row(g, 5, 3, 64)
        assert len(covercode._shared_picks(g, head_size, head_r).picks) == 1
        last = covercode._shared_picks(g, size, r)
        assert last.picks == []
        taken = list(itertools.islice(row, 2))
        assert len(last.picks) == 2
        assert [cw[-size:] for cw in taken] == last.picks
        assert tuple(taken) == tuple(build_code(g, 5, 3, 64).codewords[:2])

    @pytest.mark.parametrize("g,n,cap,match", [
        (complete(3), 4, 2, "cap"),
        (complete(3), -1, None, "n must be nonnegative"),
        (from_edges(4, [(1, 2), (2, 1), (3, 4), (4, 3)]), 3, 64, "disconnected"),
    ], ids=["cap", "negative-n", "disconnected"])
    def test_bad_input_fails_at_the_call(self, g, n, cap, match):
        with pytest.raises(ValueError, match=match):
            covercode.first_row(g, n, 3, cap)


class TestPlanBlocks:
    """plan_blocks is the one check of a code's blocks: build_code and
    first_row cover them as planned."""

    DISCONNECTED = from_edges(4, [(1, 2), (2, 1), (3, 4), (4, 3)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="graph 'custom' is disconnected; no finite covering radius"):
            covercode.plan_blocks(self.DISCONNECTED, 3, 3)

    def test_cap_checked_before_connectivity(self):
        with pytest.raises(ValueError, match="cannot fit a single color axis"):
            covercode.plan_blocks(self.DISCONNECTED, 3, 3, 2)

    def test_zero_variables_need_no_connectivity(self):
        assert covercode.plan_blocks(self.DISCONNECTED, 0, 3) == ()


class TestGainBudget:
    """Every block stays within _MAX_GAIN_UPDATES gain updates, d^b * Vol:
    plan_blocks sizes the blocks by it, and greedy_cover raises for a block
    over it, so it also holds under python -O."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("g", DIFFERENTIAL_GRAPHS + [complete(4)], ids=lambda g: f"{g.name}{g.d}")
    def test_default_blocks_fill_the_budget(self, g, k):
        p = profile(g)

        def updates(size):
            return gain_updates(g, size, select_radius(p, size, 1, k * p.delta))

        largest = 1
        while len(covercode.plan_blocks(g, largest + 1, k)) == 1:
            largest += 1
        assert updates(largest) <= covercode._MAX_GAIN_UPDATES < updates(largest + 1)
        for n in range(1, 3 * largest + 2):
            blocks = covercode.plan_blocks(g, n, k)
            assert len(blocks) == -(-n // largest)
            for size, r in blocks:
                assert size <= largest
                assert gain_updates(g, size, r) <= covercode._MAX_GAIN_UPDATES

    @pytest.mark.parametrize("g,n,k,cap,blocks", [
        # perfbench det-unsat and the selftest anchor (n = 12)
        (complete(3), 10, 3, 4096, ((5, 1), (5, 1))),
        (directed_cycle(3), 10, 3, 4096, ((5, 1), (5, 1))),
        (complete(3), 12, 3, 4096, ((6, 1), (6, 1))),
        (directed_cycle(3), 12, 3, 4096, ((6, 2), (6, 2))),
        # perfbench det-sat and the sha256 pins; acceptance 7
        (complete(3), 18, 3, 19683, ((9, 2), (9, 2))),
        (directed_cycle(3), 18, 3, 19683, ((9, 3), (9, 3))),
        (complete(3), 9, 3, 19683, ((9, 2),)),
        (directed_cycle(3), 9, 3, 19683, ((9, 3),)),
        # acceptance 6
        (complete(2), 10, 3, 1 << 10, ((10, 2),)),
        (complete(2), 13, 3, 1 << 7, ((7, 1), (6, 1))),
        (complete(3), 7, 2, 81, ((4, 1), (3, 1))),
        (complete(4), 6, 3, 4**6, ((6, 1),)),
        (directed_cycle(3), 8, 3, 3**8, ((8, 3),)),
        (directed_cycle(3), 6, 3, 27, ((3, 0), (3, 0))),
        (directed_cycle(4), 6, 3, 4**3, ((3, 0), (3, 0))),
        (hypercube(2), 5, 3, 4**5, ((5, 1),)),
        (hypercube(3), 4, 3, 8**4, ((4, 1),)),
    ])
    def test_explicit_cap_plans_pinned(self, g, n, k, cap, blocks):
        # the plans these caps gave when the cap alone sized the blocks
        assert covercode.plan_blocks(g, n, k, cap) == blocks

    def test_over_budget_block_raises_before_any_pick(self):
        g = directed_cycle(3)
        assert gain_updates(g, 10, 3) > covercode._MAX_GAIN_UPDATES
        with pytest.raises(ValueError, match="gain updates"):
            greedy_cover(g, 10, 3)
        assert covercode._shared_picks.cache_info().currsize == 0
        # the largest block the pins above build fits
        assert gain_updates(g, 9, 3) == 4_153_113 <= covercode._MAX_GAIN_UPDATES


class TestCoverageGains:
    @pytest.mark.parametrize("g,n,r", [
        (complete(2), 2, 1),
        (complete(3), 2, 2),
        (directed_cycle(3), 3, 2),
        (directed_cycle(4), 2, 3),
        (hypercube(2), 2, 2),
    ], ids=["complete2", "complete3", "cycle3", "cycle4", "hypercube2"])
    def test_matches_brute_force_counting(self, g, n, r):
        # coverage_gains is the reference eager_greedy and verify_cover rest on
        rng = __import__("random").Random(5)
        points = list(itertools.product(range(1, g.d + 1), repeat=n))
        weights = np.array([rng.randint(0, 1) for _ in points], dtype=np.int64)
        gains = coverage_gains(finite_distance_matrix(g), n, g.d, r, weights)
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
    def test_det_sat_codes_pinned(self, det_sat_codes, g, count, digest):
        # the n=18, cap 19683 codes; values are those of the eager product
        codewords = tuple(det_sat_codes[g].codewords)
        assert len(codewords) == count
        assert hashlib.sha256(repr(codewords).encode()).hexdigest() == digest

    @given(st.data())
    def test_matches_eager_product(self, data):
        widths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3), label="widths")
        codes = tuple(data.draw(block_codes(w), label="code") for w in widths)
        lazy, eager = ProductCodewords(codes), eager_product(codes)
        assert len(lazy) == len(eager)
        assert tuple(lazy) == eager
        bound = st.one_of(st.none(), st.integers(-len(eager) - 3, len(eager) + 3))
        for _ in range(3):
            a, b, c, e = (data.draw(bound, label="bound") for _ in range(4))
            part, eager_part = lazy[a:b], eager[a:b]
            assert isinstance(part, ProductCodewords)
            assert len(part) == len(eager_part)
            assert tuple(part) == eager_part
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

    def test_chunk_pickles_as_block_codes_and_range(self, det_sat_codes):
        code = det_sat_codes[complete(3)]
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
        assert code.radius == select_radius(profile(g), 3, 1, 3)
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
        r_block = select_radius(profile(g), 3, 1, 3)
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
        build_code.cache_clear()
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


class TestCoveringCodeChecks:
    """The constructor checks raise, so they also run under python -O."""

    def test_radius_must_add_up(self):
        with pytest.raises(ValueError, match="sum of the per-block radii"):
            CoveringCode(complete(2), 3, 2, ((1, 1, 1),), (3,), (1,), (1,))

    def test_blocks_must_partition(self):
        with pytest.raises(ValueError, match="partition the coordinates"):
            CoveringCode(complete(2), 4, 1, ((1, 1, 1),), (3,), (1,), (1,))

    def test_mixed_width_block_code_rejected(self):
        with pytest.raises(ValueError, match="share one length"):
            product_code(complete(3), [(((1,), (1, 2)), 0)])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            greedy_cover(complete(3), 2, -1)

    def test_repr_names_the_shape(self):
        code = build_code(directed_cycle(3), 10, 3, 4096)
        assert repr(code).endswith("name='cycle'), n=10, radius=2, blocks=(5, 5), "
                                   "per_block_radius=(1, 1), block_code_sizes=(54, 54))")


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
            build_code(complete(3), 4, 3, 81)

    def test_greedy_guarantee_violation_raises(self, monkeypatch):
        monkeypatch.setattr(covercode, "ball_volume", lambda p, n, r: 10**9)
        monkeypatch.setattr(covercode, "_MAX_GAIN_UPDATES", math.inf)  # it reads ball_volume too
        with pytest.raises(RuntimeError, match="guarantee"):
            greedy_cover(complete(3), 4, 1)

    @pytest.mark.parametrize("g,r", [(complete(3), 2), (directed_cycle(3), 3)], ids=["complete3", "cycle3"])
    def test_block_cover_check_rejects_missing_codeword(self, det_sat_codes, g, r):
        # the 3^9 blocks of the n=18, cap 19683 codes, whose cover the fixture checked
        code = det_sat_codes[g].codewords.codes[0]
        assert det_sat_codes[g].radius == 2 * r
        # the last pick covered points no earlier codeword reaches
        with pytest.raises(RuntimeError, match="outside every") as err:
            covercode._check_cover_by_balls(g, 9, r, code[:-1])
        missing = tuple(int(t) for t in str(err.value).split("(")[1].split(")")[0].split(","))
        assert all(assignment_distance(g, cw, missing) > r for cw in code[:-1])
        assert assignment_distance(g, code[-1], missing) <= r

    @pytest.mark.parametrize("g,r", [(complete(3), 1), (directed_cycle(3), 1), (directed_cycle(3), 2)],
                             ids=["complete3", "cycle3", "cycle3-r2"])
    def test_python_cover_check_rejects_missing_codeword(self, g, r):
        code = greedy_cover(g, 5, r)
        covercode._check_cover_by_balls(g, 5, r, code)
        with pytest.raises(RuntimeError, match="outside every") as err:
            covercode._check_cover_by_balls(g, 5, r, code[:-1])
        missing = tuple(int(t) for t in str(err.value).split("(")[1].split(")")[0].split(","))
        assert enumerate_cover_check(g, code[:-1], r, 5) is not None
        assert all(assignment_distance(g, cw, missing) > r for cw in code[:-1])
        assert assignment_distance(g, code[-1], missing) <= r

    @staticmethod
    def bounded(ball):
        """`ball`, failing the test past 1,000 calls: without its checks the
        greedy on a wrong ball runs on and on instead of raising."""
        calls = itertools.count()

        def wrapped(tables, point):
            if next(calls) > 1000:
                pytest.fail("the greedy ran on past its checks")
            return ball(tables, point)

        return wrapped

    def test_greedy_gain_check_fires(self, monkeypatch):
        # every ball loses its first point, so the first pick's gain of 7
        # covers only 6 new points
        real = covercode._ball
        short = self.bounded(lambda tables, point: list(real(tables, point))[1:])
        monkeypatch.setattr(covercode, "_ball", short)
        with pytest.raises(RuntimeError, match="greedy gain 7 but 6 points newly covered"):
            greedy_cover(complete(3), 3, 1)

    def test_greedy_without_a_covering_center_raises(self, monkeypatch):
        # at radius 0 every ball is its center; each dual ball (any tables but
        # those of the first call) also holds the last point, so its gain runs
        # out while it is still uncovered
        real, first = covercode._ball, []

        def ball(tables, point):
            first[:] = first or [tables]
            return itertools.chain(real(tables, point), [] if tables is first[0] else [3**3 - 1])

        monkeypatch.setattr(covercode, "_ball", self.bounded(ball))
        with pytest.raises(RuntimeError, match="greedy cover found no center covering an uncovered point"):
            greedy_cover(complete(3), 3, 0)

    def test_python_path_runs_its_cover_check(self):
        # a greedy that stopped one pick early must not get past the check
        picks = covercode._shared_picks(complete(3), 5, 1)
        picks.picks.extend(picks._greedy)
        picks.picks.pop()
        with pytest.raises(RuntimeError, match="outside every"):
            greedy_cover(complete(3), 5, 1)
        with pytest.raises(RuntimeError, match="outside every"):  # again: no code was kept
            picks.code()
