import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest

import dkcsp.analysis as analysis
from dkcsp.analysis import (
    _BATCH,
    LambdaSolution,
    base_for_graph,
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


def bisect_lambda(d, k):
    """The root as solve_lambda found it by bisection, kept as a reference."""
    def fn(lam):
        return 1 / k + (k - 1) / k * lam**d - lam

    if d * (k - 1) <= k:
        return 1.0
    lo, hi = 0.0, 1.0 - 1e-6
    while fn(hi) >= 0:
        hi = 1.0 - (1.0 - hi) / 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestLambda:
    def test_fields(self):
        assert LambdaSolution._fields == ("value", "residual")

    def test_iteration_is_exact_and_matches_bisection(self):
        # the iteration stops at a float the map sends to itself or below
        for d in range(2, 13):
            for k in range(2, 13):
                sol = solve_lambda(d, k)
                assert sol.residual == 0.0, (d, k)
                assert abs(sol.value - bisect_lambda(d, k)) <= 1e-15, (d, k)

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

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError, match="j must be nonnegative"):
            reach_probability(3, 3, -1)


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

        markov_simulate(3, 3, 2, 300, _BATCH, 3)  # pay the numpy import and first-call allocations untraced
        assert traced_peak(4 * _BATCH) <= 1.25 * traced_peak(_BATCH)

    def test_partial_last_batch_counted(self):
        assert markov_simulate(3, 3, 0, 5, 2 * _BATCH + 1, 0) == (1.0, 0.0)

    def test_int64_bounds_checked_at_the_boundary(self):
        # j_start and d * max_steps must fit the walks' int64 arrays; the
        # check refuses 2^63 before anything is simulated
        top = (1 << 63) - 1
        analysis.check_simulation(3, 3, top, top // 3, 1)
        analysis.check_simulation(2, 3, 0, (1 << 62) - 1, 1)
        analysis.check_simulation(1 << 62, 3, 0, 1, 1)
        for d, j, max_steps in [(3, top + 1, 10), (3, 0, top // 3 + 1), (2, 0, 1 << 62), (1 << 62, 0, 2)]:
            with pytest.raises(ValueError, match=r"2\^63"):
                markov_simulate(d, 3, j, max_steps, 10, 1)

    def test_start_past_the_horizon_is_no_hit_without_simulating(self, monkeypatch):
        # down-steps are -1, so no walk from j > max_steps reaches 0 in time:
        # like reach_within, the simulation returns 0 and runs no chunk
        monkeypatch.setattr(analysis, "_chunk_hits", None)  # calling it would raise
        top = (1 << 63) - 1
        for j, max_steps in [(11, 10), (top, 10), (top, top // 3)]:
            assert markov_simulate(3, 3, j, max_steps, 10**9, 1) == (0.0, 0.0)
            assert reach_within(3, 3, j, max_steps) == 0.0
        monkeypatch.undo()
        assert markov_simulate(3, 3, 2, 2, 2000, 1)[0] > 0  # j = max_steps still simulates

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

    # the chunks' streams fix the result; threads only change who runs them
    ARGS = (3, 3, 2, 300)

    def run_at(self, monkeypatch, workers, chunk=analysis._CHUNK, trials=40_000, rng=5):
        # one live chunk per thread, so _BATCH // _CHUNK threads run
        monkeypatch.setattr(analysis, "_CHUNK", chunk)
        monkeypatch.setattr(analysis, "_BATCH", workers * chunk)
        return markov_simulate(*self.ARGS, trials, rng)

    # (d, k, j_start, max_steps, trials, seed) -> the estimate; chunk i draws
    # child i of SeedSequence(seed), so no thread count may change it
    PINNED = [
        ((3, 3, 2, 300, 40_000, 5), (0.13305, 0.0016981438212059661)),
        ((3, 3, 2, 10_000, 100_000, 1), (0.13574, 0.0010831188872880023)),
        ((2, 3, 1, 50, 30_000, 7), (0.5052, 0.002886595226213748)),
        ((4, 2, 3, 1000, 200_000, 11), (0.16025, 0.0008202741538656451)),
    ]

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_pinned_estimates(self, monkeypatch, workers):
        monkeypatch.setattr(analysis, "_BATCH", workers * analysis._CHUNK)
        for args, expected in self.PINNED:
            assert markov_simulate(*args) == expected, args

    def test_same_result_at_1_2_3_workers(self, monkeypatch):
        assert self.run_at(monkeypatch, 1) == self.run_at(monkeypatch, 2)
        small = {self.run_at(monkeypatch, w, chunk=1 << 11) for w in (1, 2, 3)}
        assert len(small) == 1

    def test_stress_many_small_chunks(self, monkeypatch):
        # 8 workers on 2 cores over 313 chunks of 64 walks, switching often:
        # a lost or doubled chunk would move the hit count
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            threaded = self.run_at(monkeypatch, 8, chunk=64, trials=20_000)
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - start < 30
        assert threaded == self.run_at(monkeypatch, 1, chunk=64, trials=20_000)
        assert threading.active_count() == before

    def test_worker_error_is_raised_and_threads_joined(self, monkeypatch):
        import numpy as np

        real = np.random.default_rng
        made, raised = [], []

        class FailingThird:
            def __init__(self, gen):
                self.gen = gen
                self.fail = len(made) == 2
                made.append(bool(raised))

            def binomial(self, n, p):
                if self.fail:
                    raised.append(True)
                    raise RuntimeError("binomial failed in chunk 2")
                return self.gen.binomial(n, p)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FailingThird(real(seed)))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 2"):
            self.run_at(monkeypatch, 4, chunk=1 << 10, trials=200 << 10)
        assert threading.active_count() == before
        # once the error is recorded no chunk starts; only the other workers
        # can start one between the raise and the record
        assert made.count(True) <= 3
        assert len(made) < 200

    def test_thread_start_failure_is_raised_and_threads_joined(self, monkeypatch):
        import numpy as np

        real_start, real_rng = threading.Thread.start, np.random.default_rng
        started, made = [], []

        def start(thread):
            if started:
                raise RuntimeError("can't start the second helper")
            started.append(thread)
            real_start(thread)

        def counted(seed):
            made.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(np.random, "default_rng", counted)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second helper"):
            self.run_at(monkeypatch, 4, chunk=1 << 10, trials=400 << 10)
        assert len(started) == 1
        assert threading.active_count() == before
        # the started helper stops at its next chunk; it alone would run 100
        assert len(made) < 100


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
