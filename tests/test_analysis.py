import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from dkcsp.analysis import (
    _BATCH,
    base_for_graph,
    base_report,
    base_schoening,
    markov_simulate,
    reach_probability,
    reach_within,
    solve_lambda,
)
from dkcsp.colorgraph import complete, directed_cycle, hypercube, profile

from paper_oracle import cycle_optimality_check, success_probability_identity


# Closed forms of the deterministic bases, kept as independent oracles for
# the profile formula in base_for_graph.
def closed_complete(d, k):
    return Fraction(d * k, k + 1)


def closed_cycle(d, k):
    return Fraction(d * (k - 1), k) * Fraction(k**d, k**d - 1)


def det_complete(d, k):
    return base_for_graph(profile(complete(d)), k)


def det_cycle(d, k):
    return base_for_graph(profile(directed_cycle(d)), k)


class TestBases:
    def test_schoening_values(self):
        assert base_schoening(2, 3) == Fraction(4, 3)
        assert base_schoening(3, 3) == 2
        assert base_schoening(5, 4) == Fraction(15, 4)

    def test_det_complete_values(self):
        assert det_complete(2, 3) == Fraction(3, 2)
        assert det_complete(3, 3) == Fraction(9, 4)
        assert det_complete(5, 4) == 4

    def test_det_cycle_values(self):
        assert det_cycle(3, 3) == Fraction(27, 13)
        assert det_cycle(5, 4) == Fraction(15, 4) * Fraction(1024, 1023)
        assert det_cycle(2, 3) == Fraction(3, 2)

    def test_graph_base_reduces_to_complete(self):
        for d in range(2, 11):
            for k in range(2, 11):
                assert det_complete(d, k) == closed_complete(d, k)

    def test_graph_base_reduces_to_cycle(self):
        for d in range(2, 11):
            for k in range(2, 11):
                assert det_cycle(d, k) == closed_cycle(d, k)

    def test_hypercube2_value(self):
        assert base_for_graph(profile(hypercube(2)), 3) == Fraction(144, 49)

    def test_ordering_chain(self):
        profiles = {
            2: [profile(complete(2)), profile(directed_cycle(2)), profile(hypercube(1))],
            4: [profile(complete(4)), profile(directed_cycle(4)), profile(hypercube(2))],
            8: [profile(complete(8)), profile(directed_cycle(8)), profile(hypercube(3))],
        }
        for d in range(2, 9):
            per_d = profiles.get(d, [profile(complete(d)), profile(directed_cycle(d))])
            for k in range(2, 9):
                assert base_schoening(d, k) <= det_cycle(d, k)
                assert det_cycle(d, k) <= det_complete(d, k)
                for p in per_d:
                    b = base_for_graph(p, k)
                    assert det_cycle(d, k) <= b <= det_complete(d, k)

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            base_schoening(1, 3)
        with pytest.raises(ValueError):
            det_complete(3, 1)


class TestCycleOptimality:
    def test_complete_5_k4(self):
        assert cycle_optimality_check(profile(complete(5)), 4)

    def test_hypercube2_k3(self):
        p = profile(hypercube(2))
        assert base_for_graph(p, 3) >= det_cycle(4, 3)
        assert det_cycle(4, 3) == Fraction(27, 10)
        assert cycle_optimality_check(p, 3)

    def test_cycle_itself_equality(self):
        for d in (2, 3, 5):
            p = profile(directed_cycle(d))
            assert base_for_graph(p, 3) == det_cycle(d, 3)
            assert cycle_optimality_check(p, 3)

    def test_all_builtin_profiles(self):
        ps = [profile(complete(d)) for d in range(2, 9)]
        ps += [profile(directed_cycle(d)) for d in range(2, 9)]
        ps += [profile(hypercube(e)) for e in (1, 2, 3)]
        for p in ps:
            for k in range(2, 9):
                assert cycle_optimality_check(p, k)


class TestBaseReport:
    def test_recommends_cycle_for_d3(self):
        r = base_report(3, 3)
        assert r.recommended_graph == "cycle"

    def test_recommends_complete_for_d2(self):
        # at d = 2 the two bases coincide
        r = base_report(2, 3)
        assert r.det_cycle_base == r.det_complete_base
        assert r.recommended_graph == "complete"

    def test_graph_base_included(self):
        r = base_report(4, 3, profile(hypercube(2)))
        assert r.graph_base == Fraction(144, 49)


class TestLambda:
    def test_closed_form_d2(self):
        # quadratic factors into (lambda - 1)((k-1)lambda - 1)
        sol = solve_lambda(2, 3)
        assert abs(sol.value - 0.5) < 1e-12
        assert sol.residual <= 1e-12

    def test_closed_form_d3_k3(self):
        # cubic factors into (lambda - 1)(2 lambda^2 + 2 lambda - 1)
        sol = solve_lambda(3, 3)
        assert abs(sol.value - (math.sqrt(3) - 1) / 2) < 1e-12
        assert sol.residual <= 1e-12

    def test_degenerate(self):
        sol = solve_lambda(2, 2)
        assert sol.value == 1.0
        assert sol.degenerate
        assert sol.residual <= 1e-12

    def test_residual_sweep(self):
        for d in range(2, 9):
            for k in range(2, 9):
                sol = solve_lambda(d, k)
                assert sol.residual <= 1e-12
                if d * (k - 1) > k:
                    assert 0 < sol.value < 1

    def test_geometric_series_identity(self):
        # (1 - lambda^d) / (d (1 - lambda)) = k / (d(k-1)) for non-degenerate cases
        for d in range(2, 9):
            for k in range(2, 9):
                if d * (k - 1) <= k:
                    continue
                lam = solve_lambda(d, k).value
                lhs = (1 - lam**d) / (d * (1 - lam))
                rhs = k / (d * (k - 1))
                assert abs(lhs - rhs) <= 1e-9 * rhs


class TestReachProbability:
    def test_j_zero(self):
        assert reach_probability(3, 3, 0) == 1.0

    def test_d3_k3_j2(self):
        assert abs(reach_probability(3, 3, 2) - (2 - math.sqrt(3)) / 2) < 1e-12

    def test_recurrence_residual(self):
        for d, k in [(3, 3), (4, 2), (2, 4), (5, 3)]:
            p = lambda j: reach_probability(d, k, j)
            for j in range(1, 8):
                lhs = p(j)
                rhs = p(j - 1) / k + (k - 1) / k * p(j + d - 1)
                assert abs(lhs - rhs) <= 1e-10


class TestSuccessIdentity:
    def test_d3_k3_n1(self):
        lhs, rhs = success_probability_identity(3, 3, 1)
        assert abs(lhs - 0.5) < 1e-12
        assert abs(rhs - 0.5) < 1e-12

    def test_n_zero(self):
        assert success_probability_identity(4, 3, 0) == (1.0, 1.0)

    def test_d2_closed_form(self):
        lhs, rhs = success_probability_identity(2, 3, 4)
        assert abs(lhs - (3 / 4) ** 4) < 1e-12
        assert abs(rhs - (3 / 4) ** 4) < 1e-12

    def test_relative_tolerance_sweep(self):
        for d, k in [(2, 3), (3, 3), (4, 3), (3, 4), (5, 2)]:
            for n in range(0, 21):
                lhs, rhs = success_probability_identity(d, k, n)
                assert abs(lhs - rhs) <= 1e-9 * rhs


class TestMarkovSimulate:
    def test_start_at_zero(self):
        assert markov_simulate(3, 3, 0, 100, 1000, 0) == (1.0, 0.0)
        assert markov_simulate(3, 3, 0, 0, 1000, 0) == (1.0, 0.0)

    def test_d3_k3_matches_lambda_squared(self):
        target = reach_probability(3, 3, 2)
        freq, se = markov_simulate(3, 3, 2, 10_000, 100_000, 42)
        assert abs(freq - target) <= 3 * se + 0.005

    def test_strong_downward_drift(self):
        target = reach_probability(3, 50, 1)
        freq, se = markov_simulate(3, 50, 1, 5_000, 20_000, 7)
        assert abs(freq - target) <= 3 * se + 0.005

    def test_deterministic_given_seed(self):
        a = markov_simulate(3, 3, 2, 1000, 5000, 5)
        b = markov_simulate(3, 3, 2, 1000, 5000, 5)
        assert a == b

    def test_step_budget_enforced(self):
        # 3 steps cannot bring a walk home from distance 4
        freq, _ = markov_simulate(3, 3, 4, 3, 2000, 1)
        assert freq == 0.0
        for j in (1, 4):
            assert markov_simulate(3, 3, j, 0, 2000, 1) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "max_steps, exact",
        [(1, 0.0), (2, 1 / 9), (5, 0.12757), (20, 0.13392)],
        ids=["steps1", "steps2", "steps5", "steps20"],
    )
    def test_matches_exact_finite_horizon(self, max_steps, exact):
        target = exact_reach_within(3, 3, 2, max_steps)
        assert abs(target - exact) < 5e-6
        freq, se = markov_simulate(3, 3, 2, max_steps, 100_000, 11)
        assert abs(freq - target) <= 3 * se + 0.005

    def test_memory_linear_in_trials(self):
        # the live walks fit in a few arrays of `trials` entries; a path
        # matrix of trials x steps would need thousands of bytes per trial
        trials = 100_000
        tracemalloc.start()
        try:
            markov_simulate(3, 3, 2, 300, trials, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * trials

    def test_memory_independent_of_trials(self):
        # walks run in fixed batches, so four batches peak like one
        def traced_peak(trials):
            tracemalloc.start()
            try:
                markov_simulate(3, 3, 2, 300, trials, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(4 * _BATCH) <= 1.25 * traced_peak(_BATCH)

    def test_partial_last_batch_counted(self):
        assert markov_simulate(3, 3, 0, 5, 2 * _BATCH + 1, 0) == (1.0, 0.0)

    @pytest.mark.parametrize("d, k", [(0, 3), (-2, 3), (1, 3), (3, 0), (3, 1)])
    def test_bad_dk_rejected(self, d, k):
        with pytest.raises(ValueError):
            markov_simulate(d, k, 2, 10, 10, 1)

    @pytest.mark.parametrize(
        "d, k, j, max_steps",
        [(3, 3, 2, t) for t in (2, 5, 20, 200)]
        + [(2, 2, j, t) for j in (1, 3) for t in (50, 400)]
        + [(2, 3, 2, 100), (4, 3, 1, 60), (3, 50, 1, 300), (5, 2, 4, 80)],
    )
    def test_jump_matches_exact_finite_horizon(self, d, k, j, max_steps):
        # jumps over the steps that cannot reach 0 must keep the law of the
        # step-by-step walk: compare against the forward DP, one fixed seed
        target = exact_reach_within(d, k, j, max_steps)
        freq, se = markov_simulate(d, k, j, max_steps, 200_000, 20261018)
        assert abs(freq - target) <= 4 * se + 1e-3


class TestReachWithin:
    def test_matches_forward_dp(self):
        for d in range(2, 6):
            for k in range(2, 6):
                for j in range(0, 6):
                    for max_steps in (0, 1, 2, 3, 4, 7, 12, 33, 150):
                        exact = exact_reach_within(d, k, j, max_steps)
                        assert abs(reach_within(d, k, j, max_steps) - exact) <= 1e-13, (
                            d, k, j, max_steps)

    @pytest.mark.parametrize(
        "max_steps, exact", [(1, 0.0), (2, 1 / 9), (5, 0.12757), (20, 0.13392)]
    )
    def test_pinned_values(self, max_steps, exact):
        assert abs(reach_within(3, 3, 2, max_steps) - exact) < 5e-6

    @pytest.mark.parametrize("d, k, j", [(3, 3, 2), (3, 50, 1), (2, 3, 3), (8, 8, 5)])
    def test_long_horizon_is_lambda_power(self, d, k, j):
        assert reach_within(d, k, j, 10**9) == pytest.approx(
            reach_probability(d, k, j), rel=1e-12)

    def test_underflowing_terms_stop_early(self):
        # every term underflows to 0.0; the stop rule works on log terms, so
        # the billion-step horizon is not walked term by term
        start = time.perf_counter()
        assert reach_within(3, 50, 5000, 10**9) == 0.0
        assert time.perf_counter() - start < 1.0

    def test_critical_pair_matches_forward_dp(self):
        # d = k = 2 takes the reflection-principle branch at every horizon
        for j in range(1, 9):
            exact = exact_reach_curve(2, 2, j, 399)
            for max_steps in range(0, 400, 3):
                assert abs(reach_within(2, 2, j, max_steps) - exact[max_steps]) <= 5e-13, (j, max_steps)

    def test_critical_pair_billion_steps_is_fast(self):
        start = time.perf_counter()
        value = reach_within(2, 2, 2, 10**9)
        assert time.perf_counter() - start < 0.05
        # P(tau > T) ~ j sqrt(2 / (pi T)) for the simple symmetric walk
        assert 1.0 - value == pytest.approx(2 * math.sqrt(2 / (math.pi * 10**9)), rel=1e-6)

    def test_start_at_zero_and_out_of_reach(self):
        assert reach_within(3, 3, 0, 0) == 1.0
        assert reach_within(3, 3, 4, 3) == 0.0

    @pytest.mark.parametrize(
        "args", [(1, 3, 2, 10), (3, 0, 2, 10), (3, 3, -1, 10), (3, 3, 2, -1)]
    )
    def test_bad_input_rejected(self, args):
        with pytest.raises(ValueError):
            reach_within(*args)


def exact_reach_curve(d, k, j, max_steps):
    """Exact probabilities that the distance walk from j reaches 0 within 0, 1, ..., max_steps steps.

    One forward DP over the distribution of unabsorbed positions, recording the
    absorbed mass after every step.
    """
    dist = {j: 1.0}
    reached = dist.pop(0, 0.0)
    curve = [reached]
    for _ in range(max_steps):
        nxt = {}
        for pos, pr in dist.items():
            nxt[pos - 1] = nxt.get(pos - 1, 0.0) + pr / k
            nxt[pos + d - 1] = nxt.get(pos + d - 1, 0.0) + pr * (k - 1) / k
        reached += nxt.pop(0, 0.0)
        dist = nxt
        curve.append(reached)
    return curve


def exact_reach_within(d, k, j, max_steps):
    """Exact probability that the distance walk from j reaches 0 within max_steps."""
    return exact_reach_curve(d, k, j, max_steps)[-1]
