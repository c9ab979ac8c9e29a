import itertools
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from dkcsp import formula
from dkcsp.formula import (
    Constraint,
    Formula,
    Literal,
    ParseError,
    brute_force_solve,
    evaluate,
    generate_random,
    parse_instance,
    serialize_instance,
)

from paper_oracle import constraint, normalize


def naive_evaluate(f, a):
    """Direct per-constraint re-check, independent of evaluate's loop."""
    for i, con in enumerate(f.constraints):
        falsified = [a[lit.var - 1] == lit.color for lit in con.literals]
        if all(falsified):
            return False, i
    return True, None


@st.composite
def random_formulas(st_draw, min_m=0, max_n=6, max_m=8):
    n = st_draw(st.integers(1, max_n))
    d = st_draw(st.integers(2, 4))
    k = st_draw(st.integers(1, min(3, n)))
    m = st_draw(st.integers(min_m, max_m))
    seed = st_draw(st.integers(0, 2**32 - 1))
    return generate_random(n, d, k, m, seed)


class TestParse:
    def test_basic(self):
        f = parse_instance("p csp 2 3 1\n1 1 2 2 0\n")
        assert f == Formula(2, 3, 2, (constraint((1, 1), (2, 2)),))

    def test_empty_formula(self):
        f = parse_instance("p csp 1 2 0\n")
        assert f == Formula(1, 2, 1, ())

    def test_color_out_of_range(self):
        with pytest.raises(ParseError, match="line 2.*color 4"):
            parse_instance("p csp 2 3 1\n1 4 0\n")

    def test_var_out_of_range(self):
        with pytest.raises(ParseError, match="line 2.*variable 3"):
            parse_instance("p csp 2 3 1\n3 1 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("p cnf 2 3 1\n1 1 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_instance("c only a comment\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="line 3.*garbage"):
            parse_instance("p csp 2 3 1\n1 1 0\n2 2 0\n")

    def test_too_few_constraints(self):
        with pytest.raises(ParseError, match="expected 2"):
            parse_instance("p csp 2 3 2\n1 1 0\n")

    def test_comments_and_blank_lines(self):
        f = parse_instance("c header comment\n\np csp 2 2 1\nc mid\n1 1 0\n")
        assert f.m == 1

    def test_unterminated_line(self):
        with pytest.raises(ParseError, match="end with 0"):
            parse_instance("p csp 2 3 1\n1 1\n")

    def test_empty_constraint_line(self):
        f = parse_instance("p csp 2 3 1\n0\n")
        assert f.constraints == (Constraint(()),)

    # int() reads each of the first three: "1_0" as 10, "+1" as 1 and Arabic-Indic "٢"
    # as 2; the last is ASCII digits, but more than int() reads (4,300 by default)
    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0662", "1" * 5000],
                             ids=["underscore", "plus", "arabic-indic", "over-int-digits"])
    def test_only_ascii_decimal_digits(self, token):
        with pytest.raises(ParseError, match=re.escape(f"line 2: non-integer token in constraint line '1 {token} 0'")):
            parse_instance(f"p csp 2 3 1\n1 {token} 0\n")
        with pytest.raises(ParseError, match="line 1: non-integer field in header"):
            parse_instance(f"p csp {token} 3 1\n1 1 0\n")

    def test_literals_checked_and_shared(self):
        f = parse_instance("p csp 2 3 3\n1 1 2 2 0\n2 2 0\n01 1 0\n")
        assert f == Formula(2, 3, 2, (constraint((1, 1), (2, 2)), constraint((2, 2)), constraint((1, 1))))
        assert f.constraints[0].literals[1] is f.constraints[1].literals[0]
        with pytest.raises(ParseError, match="line 3: variable 3 out of range 1..2"):
            parse_instance("p csp 2 3 2\n1 1 0\n1 1 3 4 0\n")


class TestSerialize:
    def test_exact_text(self):
        f = parse_instance("p csp 2 3 1\n1 1 2 2 0\n")
        assert serialize_instance(f) == "p csp 2 3 1\n1 1 2 2 0\n"

    def test_empty(self):
        assert serialize_instance(Formula(1, 2, 1, ())) == "p csp 1 2 0\n"

    @given(random_formulas(min_m=1))
    def test_roundtrip(self, f):
        # all generated constraints have exactly k literals, so the parsed
        # width matches the declared one
        assert parse_instance(serialize_instance(f)) == f

    @given(random_formulas())
    def test_roundtrip_semantics(self, f):
        g = parse_instance(serialize_instance(f))
        assert (g.n, g.d, g.constraints) == (f.n, f.d, f.constraints)


class TestEvaluate:
    def test_all_falsified(self):
        f = Formula(2, 3, 2, (constraint((1, 1), (2, 2)),))
        assert evaluate(f, (1, 2)) == (False, 0)

    def test_satisfied(self):
        f = Formula(2, 3, 2, (constraint((1, 1), (2, 2)),))
        assert evaluate(f, (2, 2)) == (True, None)

    def test_empty_constraint_always_unsat(self):
        f = Formula(2, 3, 2, (constraint((1, 1), (2, 2)), Constraint(())))
        assert evaluate(f, (2, 2)) == (False, 1)

    def test_length_mismatch(self):
        f = Formula(2, 3, 2, ())
        with pytest.raises(ValueError):
            evaluate(f, (1,))

    def test_range_mismatch(self):
        f = Formula(2, 3, 2, ())
        with pytest.raises(ValueError):
            evaluate(f, (1, 4))

    @given(random_formulas(), st.integers(0, 2**31))
    def test_matches_naive(self, f, seed):
        import random

        rng = random.Random(seed)
        a = tuple(rng.randint(1, f.d) for _ in range(f.n))
        assert evaluate(f, a) == naive_evaluate(f, a)


class TestNormalize:
    def test_dedup(self):
        f = Formula(1, 2, 2, (constraint((1, 1), (1, 1)),))
        assert normalize(f).constraints == (constraint((1, 1)),)

    def test_tautology_dropped(self):
        f = Formula(1, 2, 2, (constraint((1, 1), (1, 2)),))
        assert normalize(f).constraints == ()

    def test_idempotent(self):
        f = Formula(2, 3, 3, (constraint((1, 1), (1, 1), (2, 3)), constraint((2, 1), (2, 2))))
        once = normalize(f)
        assert normalize(once) == once

    @given(random_formulas())
    def test_already_normal_unchanged(self, f):
        # distinct variables per generated constraint, so already normal
        assert normalize(f) == f

    @st.composite
    @staticmethod
    def messy_formulas(draw):
        n = draw(st.integers(1, 4))
        d = draw(st.integers(2, 3))
        m = draw(st.integers(0, 5))
        cons = []
        for _ in range(m):
            pairs = draw(
                st.lists(
                    st.tuples(st.integers(1, n), st.integers(1, d)), min_size=0, max_size=4
                )
            )
            cons.append(Constraint(tuple(Literal(v, c) for v, c in pairs)))
        return Formula(n, d, 4, tuple(cons))

    @given(messy_formulas())
    def test_satisfaction_preserving(self, f):
        g = normalize(f)
        for a in itertools.product(range(1, f.d + 1), repeat=f.n):
            assert evaluate(f, a)[0] == evaluate(g, a)[0]
        assert normalize(g) == g


class TestGenerate:
    def test_empty(self):
        f = generate_random(5, 3, 3, 0, 0)
        assert f == Formula(5, 3, 3, ())

    def test_planted_satisfies(self):
        planted = (2, 1, 3, 3, 1)
        f = generate_random(5, 3, 3, 20, 123, planted)
        assert evaluate(f, planted) == (True, None)

    def test_deterministic(self):
        a = generate_random(6, 3, 2, 10, 99)
        b = generate_random(6, 3, 2, 10, 99)
        assert a == b

    def test_distinct_vars_exact_width(self):
        f = generate_random(6, 4, 3, 15, 5)
        for con in f.constraints:
            assert len(con.literals) == 3
            assert len({lit.var for lit in con.literals}) == 3

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="distinct"):
            generate_random(2, 2, 3, 1, 0)

    def test_planted_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="planted assignment out of range"):
            generate_random(3, 3, 2, 1, 0, planted=(1, 2, 4))

    @given(st.integers(0, 2**32 - 1))
    def test_planted_property(self, seed):
        import random

        rng = random.Random(seed)
        n, d, k = rng.randint(3, 6), rng.randint(2, 4), rng.randint(1, 3)
        planted = tuple(rng.randint(1, d) for _ in range(n))
        f = generate_random(n, d, k, 15, seed, planted)
        assert evaluate(f, planted)[0]


class TestBruteForce:
    def test_empty_formula(self):
        assert brute_force_solve(Formula(2, 2, 1, ())) == (1, 1)

    def test_single_literal(self):
        f = Formula(1, 2, 1, (constraint((1, 1)),))
        assert brute_force_solve(f) == (2,)

    def test_empty_constraint(self):
        f = Formula(2, 2, 1, (Constraint(()),))
        assert brute_force_solve(f) is None

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_solve(Formula(30, 2, 1, ()))

    def test_n_zero(self):
        assert brute_force_solve(Formula(0, 2, 1, ())) == ()

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7, 64])
    def test_chunks_keep_the_lexicographic_order(self, monkeypatch, chunk):
        # chunk boundaries fall before, on and after the first witness, which
        # is assignment 239 of 243 for one case and absent for two
        cases = [generate_random(n, d, 3, m, seed) for n, d, m in [(4, 3, 40), (5, 2, 20), (5, 3, 110)]
                 for seed in range(6)]
        want = [brute_force_solve(f) for f in cases]
        assert want == [next((a for a in itertools.product(range(1, f.d + 1), repeat=f.n)
                              if evaluate(f, a)[0]), None) for f in cases]
        assert want.count(None) == 2 and (3, 3, 3, 3, 1) in want
        monkeypatch.setattr(formula, "_BRUTE_FORCE_CHUNK", chunk)
        assert [brute_force_solve(f) for f in cases] == want

    @given(random_formulas(max_n=5))
    def test_lexicographically_smallest(self, f):
        found = brute_force_solve(f)
        for a in itertools.product(range(1, f.d + 1), repeat=f.n):
            if evaluate(f, a)[0]:
                assert found == a
                return
        assert found is None


class TestRecords:
    """Formulas are plain records: value equality, pickling for the process
    pool, and constructor checks that raise (so they also run under python -O)."""

    def test_pickle_round_trip(self):
        f = generate_random(6, 3, 3, 20, 5)
        for record in (f, f.constraints[0], f.constraints[0].literals[0]):
            back = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
            assert back == record and type(back) is type(record)
        assert pickle.loads(pickle.dumps(f)).m == 20

    def test_value_equality_and_hash(self):
        a, b = generate_random(6, 3, 3, 20, 5), generate_random(6, 3, 3, 20, 5)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != Formula(6, 3, 3, a.constraints[1:])
        assert Formula(6, 3, 3, ()) != Formula(6, 3, 2, ())
        assert constraint((1, 2)) == Constraint((Literal(var=1, color=2),))
        assert len({constraint((1, 2)), constraint((1, 2)), constraint((2, 1))}) == 2
        assert repr(constraint((1, 2))) == "Constraint(literals=(Literal(var=1, color=2),))"

    def test_formula_repr(self):
        assert repr(Formula(2, 3, 2, ())) == "Formula(n=2, d=3, k=2, constraints=())"

    @pytest.mark.parametrize("args,match", [
        ((-1, 3, 3, ()), "variable count"),
        ((2, 1, 3, ()), "color count"),
        ((2, 3, 0, ()), "width must be at least 1"),
        ((2, 3, 1, (constraint((1, 1), (2, 2)),)), "2 literals, width limit is 1"),
        ((2, 3, 2, (constraint((3, 1)),)), "variable 3 out of range"),
        ((2, 3, 2, (constraint((1, 4)),)), "color 4 out of range"),
        ((2, 3, 2, (constraint((1, 0)),)), "color 0 out of range"),
    ])
    def test_constructor_checks_raise(self, args, match):
        with pytest.raises(ValueError, match=match):
            Formula(*args)
