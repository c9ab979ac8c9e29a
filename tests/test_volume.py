import itertools
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dkcsp.colorgraph import DistanceProfile, complete, directed_cycle, hypercube, profile
from dkcsp.volume import ball_volume, select_radius, shell_counts

from paper_oracle import assignment_distance, lower_bound, upper_bound

GRAPHS = [complete(2), complete(3), complete(4), directed_cycle(2), directed_cycle(3),
          directed_cycle(4), hypercube(1), hypercube(2)]


def enumerate_shells(g, n):
    """Brute-force shell counts: distances from a fixed center to every point."""
    p = profile(g)
    center = tuple(1 for _ in range(n))
    counts = [0] * (p.s * n + 1)
    for point in itertools.product(range(1, g.d + 1), repeat=n):
        counts[assignment_distance(g, center, point)] += 1
    return tuple(counts)


def binom(n, r):
    out = 1
    for i in range(r):
        out = out * (n - i) // (i + 1)
    return out


class TestShellCounts:
    def test_cycle3_n2(self):
        assert shell_counts(profile(directed_cycle(3)), 2) == (1, 2, 3, 2, 1)

    def test_n_zero(self):
        assert shell_counts(profile(complete(3)), 0) == (1,)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.name}{g.d}")
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_enumeration(self, g, n):
        assert shell_counts(profile(g), n) == enumerate_shells(g, n)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_complete_closed_form(self, d, n):
        counts = shell_counts(profile(complete(d)), n)
        assert counts == tuple(binom(n, r) * (d - 1) ** r for r in range(n + 1))

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.name}{g.d}")
    def test_total_is_full_space(self, g):
        for n in range(5):
            assert sum(shell_counts(profile(g), n)) == g.d**n

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.name}{g.d}")
    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    def test_generating_function_identity(self, g, x):
        p = profile(g)
        for n in range(9):
            counts = shell_counts(p, n)
            lhs = sum(t * x**r for r, t in enumerate(counts))
            rhs = sum(d_i * x**i for i, d_i in enumerate(p.counts)) ** n
            assert lhs == rhs

    @pytest.mark.parametrize("p", [*dict.fromkeys(profile(g) for g in GRAPHS), DistanceProfile(4, (1, 1))],
                             ids=lambda p: f"d{p.d}-{'-'.join(map(str, p.counts))}")
    def test_top_gives_the_prefix(self, p):
        for n in range(13):
            full = shell_counts(p, n)
            for top in range(p.s * n + 3):
                assert shell_counts(p, n, top) == full[: top + 1], (n, top)

    def test_sum_check_fires(self):
        # a hashable stand-in that claims its counts (1, 2) span all 4 colors:
        # its shells hold 3^3 = 27 points, not 4^3, and the check raises
        stand_in = namedtuple("Profile", "d counts s spans_all_colors")(4, (1, 2), 1, True)
        with pytest.raises(RuntimeError, match=r"shell counts sum to 27, not 4\^3"):
            shell_counts(stand_in, 3)

    def test_negative_top_rejected_after_n(self):
        p = profile(complete(3))
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            shell_counts(p, 2, -1)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            shell_counts(p, -1, -1)

    def test_recurrence_holds(self):
        p = profile(hypercube(2))
        for n in range(1, 6):
            prev = shell_counts(p, n - 1)
            cur = shell_counts(p, n)
            for r, value in enumerate(cur):
                expected = sum(
                    d_i * prev[r - i]
                    for i, d_i in enumerate(p.counts)
                    if 0 <= r - i < len(prev)
                )
                assert value == expected


class TestBallVolume:
    def test_complete_d3_n4_r1(self):
        assert ball_volume(profile(complete(3)), 4, 1) == 9

    def test_cycle_d3_n2_r2(self):
        assert ball_volume(profile(directed_cycle(3)), 2, 2) == 6

    def test_r_zero(self):
        for g in GRAPHS:
            assert ball_volume(profile(g), 3, 0) == 1

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            ball_volume(profile(complete(3)), 2, -1)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.name}{g.d}")
    def test_monotone_and_saturating(self, g):
        p = profile(g)
        n = 4
        prev = 0
        for r in range(p.s * n + 3):
            v = ball_volume(p, n, r)
            assert v >= prev
            prev = v
        assert prev == g.d**n


class TestSelectRadius:
    def test_complete3_example(self):
        assert select_radius(profile(complete(3)), 6, 1, 6) == 1

    def test_cycle3_example(self):
        assert select_radius(profile(directed_cycle(3)), 6, 1, 3) == 2

    def test_x_one_maximizes_counts(self):
        p = profile(complete(3))
        counts = shell_counts(p, 5)
        assert select_radius(p, 5, 1, 1) == counts.index(max(counts))

    def test_tie_broken_toward_smaller(self):
        # cycle on 3 colors, n = 3, x = 1/3: T = (1,3,6,..) scores 1, 1, 2/3, ..
        assert select_radius(profile(directed_cycle(3)), 3, 1, 3) == 0

    @given(
        st.sampled_from(GRAPHS),
        st.integers(0, 6),
        st.fractions(min_value=Fraction(1, 100), max_value=1),
    )
    def test_exhaustive_argmax(self, g, n, x):
        p = profile(g)
        counts = shell_counts(p, n)
        scores = [counts[r] * x**r for r in range(len(counts))]
        best = max(scores)
        r = select_radius(p, n, x.numerator, x.denominator)
        assert scores[r] == best
        assert all(scores[i] < best for i in range(r))

    def test_rejects_nonpositive(self):
        # x = a/b arrives as two integers, so the denominator is checked too
        for a, b in ((0, 1), (1, 0), (-1, 3), (1, -3)):
            with pytest.raises(ValueError, match="needs a > 0 and b > 0"):
                select_radius(profile(complete(3)), 2, a, b)


class TestBounds:
    def test_lower_complete_tiny(self):
        r, bound = lower_bound(profile(complete(2)), 1, 1)
        assert bound == 1
        assert ball_volume(profile(complete(2)), 1, r) >= bound

    def test_lower_complete_x_zero(self):
        r, bound = lower_bound(profile(complete(3)), 4, 0)
        assert (r, bound) == (0, Fraction(1, 5))

    def test_lower_cycle_d2_matches_complete(self):
        # 1 + x + .. + x^(d-1) = 1 + (d-1)x at d = 2; only the term counts differ
        r1, b1 = lower_bound(profile(complete(2)), 5, Fraction(1, 3))
        r2, b2 = lower_bound(profile(directed_cycle(2)), 5, Fraction(1, 3))
        assert r1 == r2 and b1 == b2

    def test_lower_cycle_n_zero(self):
        r, bound = lower_bound(profile(directed_cycle(3)), 0, Fraction(1, 3))
        assert (r, bound) == (0, Fraction(1))

    def test_lower_matches_closed_forms(self):
        # the closed forms of the complete-graph and cycle lower bounds
        for d in range(2, 7):
            for n in range(11):
                for x in (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                    _, low_c = lower_bound(profile(complete(d)), n, x)
                    _, low_y = lower_bound(profile(directed_cycle(d)), n, x)
                    if x == 0:
                        assert low_c == Fraction(1, n + 1)
                        assert low_y == Fraction(1, (d - 1) * n + 1)
                        continue
                    r_c = select_radius(profile(complete(d)), n, x.numerator, x.denominator)
                    r_y = select_radius(profile(directed_cycle(d)), n, x.numerator, x.denominator)
                    assert low_c == (1 + (d - 1) * x) ** n / ((n + 1) * x**r_c)
                    cycle_gf = sum(x**i for i in range(d))
                    assert low_y == cycle_gf**n / (((d - 1) * n + 1) * x**r_y)

    def test_upper_x_one_is_full_space(self):
        for g in GRAPHS:
            p = profile(g)
            assert upper_bound(p, 3, 2, 1) == g.d**3

    def test_upper_cycle3_n2_r1(self):
        assert upper_bound(profile(directed_cycle(3)), 2, 1, Fraction(1, 2)) == Fraction(49, 8)

    def test_upper_r0_at_least_one(self):
        for x in (Fraction(1, 4), Fraction(1, 2), 1):
            assert upper_bound(profile(complete(3)), 4, 0, x) >= 1

    def test_upper_x_zero(self):
        assert upper_bound(profile(complete(3)), 4, 0, 0) == 1
        with pytest.raises(ValueError):
            upper_bound(profile(complete(3)), 4, 1, 0)

    def test_upper_x_above_one_rejected(self):
        with pytest.raises(ValueError):
            upper_bound(profile(complete(3)), 4, 1, 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("x", [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
    def test_sandwich(self, d, x):
        for n in range(11):
            p_c = profile(complete(d))
            r_c, low_c = lower_bound(p_c, n, x)
            vol_c = ball_volume(p_c, n, r_c)
            assert low_c <= vol_c <= upper_bound(p_c, n, r_c, x)

            p_y = profile(directed_cycle(d))
            r_y, low_y = lower_bound(p_y, n, x)
            vol_y = ball_volume(p_y, n, r_y)
            assert low_y <= vol_y <= upper_bound(p_y, n, r_y, x)
