import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dkcsp import formula, search
from dkcsp.cli import main
from dkcsp.covercode import build_code, product_code
from dkcsp.colorgraph import directed_cycle
from dkcsp.formula import brute_force_solve, generate_random, parse_instance, serialize_instance

from cover_oracle import verify_cover

ROOT = Path(__file__).resolve().parent.parent
# a fresh `dkcsp solve --method brute`, then its exit code and peak RSS in MB,
# read as VmHWM: ru_maxrss can hold the peak of the process that forked it
BRUTE_PEAK = """
import sys
from dkcsp.cli import main
code = main(["solve", "--method", "brute", sys.argv[1]])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
print("exit", code, "peak", peak)
"""


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "inst.csp"
    rc = main(["gen", "--n", "6", "--d", "3", "--k", "3", "--m", "10",
               "--seed", "42", "-o", str(path)])
    assert rc == 0
    return path


class TestGen:
    def test_deterministic(self, tmp_path, capsys):
        rc = main(["gen", "--n", "4", "--d", "2", "--k", "2", "--m", "5", "--seed", "1"])
        first = capsys.readouterr().out
        rc2 = main(["gen", "--n", "4", "--d", "2", "--k", "2", "--m", "5", "--seed", "1"])
        second = capsys.readouterr().out
        assert rc == rc2 == 0
        assert first == second
        parse_instance(first)

    def test_fresh_seed_printed(self, capsys):
        rc = main(["gen", "--n", "3", "--d", "2", "--k", "2", "--m", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "seed:" in captured.err

    def test_planted_is_satisfiable(self, capsys):
        rc = main(["gen", "--n", "5", "--d", "3", "--k", "3", "--m", "30",
                   "--seed", "7", "--planted"])
        out = capsys.readouterr().out
        assert rc == 0
        assert brute_force_solve(parse_instance(out)) is not None

    @pytest.mark.parametrize("argv,message", [
        (["--d", "1", "--n", "4", "--k", "2"], "d must be at least 2"),
        (["--d", "0", "--n", "4", "--k", "2"], "d must be at least 2"),
        (["--d", "3", "--n", "2", "--k", "3"], "cannot pick 3 distinct variables out of 2"),
        (["--d", "3", "--n", "-1", "--k", "1"], "n and m must be nonnegative"),
    ], ids=["d1", "d0", "k-over-n", "negative-n"])
    def test_planted_bad_input_fails_before_any_output(self, capsys, argv, message):
        for seed in (["--seed", "1"], []):  # nor a fresh seed is printed
            rc = main(["gen", *argv, "--m", "3", *seed, "--planted"])
            captured = capsys.readouterr()
            assert rc == 1
            assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestSolve:
    def test_det_sat_exit_10(self, instance, capsys):
        rc = main(["solve", "--method", "det", "--graph", "cycle",
                   "--block-cap", "729", str(instance)])
        out = capsys.readouterr().out
        assert rc == 10
        lines = out.splitlines()
        assert lines[0] == "s SATISFIABLE"
        assert lines[1].startswith("v ")
        witness = tuple(int(t) for t in lines[1][2:].split())
        f = parse_instance(instance.read_text())
        from dkcsp.formula import evaluate
        assert evaluate(f, witness)[0]

    def test_det_unsat_exit_20(self, tmp_path, capsys):
        path = tmp_path / "unsat.csp"
        path.write_text("p csp 1 2 2\n1 1 0\n1 2 0\n")
        rc = main(["solve", "--method", "det", str(path)])
        out = capsys.readouterr().out
        assert rc == 20
        assert out == "s UNSATISFIABLE\n"

    def test_brute_method(self, instance, capsys):
        rc = main(["solve", "--method", "brute", str(instance)])
        capsys.readouterr()
        assert rc == 10

    def test_schoening_method(self, instance, capsys):
        rc = main(["solve", "--method", "schoening", "--seed", "3",
                   "--reps", "200", str(instance)])
        out = capsys.readouterr().out
        assert rc in (0, 10)
        if rc == 10:
            assert out.startswith("s SATISFIABLE")
        else:
            assert out == "s UNKNOWN\n"

    def test_schoening_empty_constraint_with_wide_draws(self, tmp_path, capsys):
        # d = 300 draws two bytes a value; the empty constraint ends every walk
        path = tmp_path / "empty.csp"
        path.write_text("p csp 1 300 2\n1 1 0\n0\n")
        rc = main(["solve", "--method", "schoening", "--seed", "1", "--reps", "5", "-v", str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (0, "s UNKNOWN\n")
        assert "reps=5 " in captured.err

    def test_verify_oracle(self, instance, capsys):
        rc = main(["solve", "--method", "det", "--verify-oracle",
                   "--block-cap", "729", str(instance)])
        capsys.readouterr()
        assert rc == 10

    @pytest.mark.parametrize("m,rc", [(10, 10), (200, 20)], ids=["sat", "unsat"])
    def test_brute_verify_oracle_solves_once(self, tmp_path, capsys, monkeypatch, m, rc):
        path = tmp_path / "inst.csp"
        path.write_text(serialize_instance(generate_random(6, 3, 3, m, 42)))
        assert main(["solve", "--method", "brute", "-v", str(path)]) == rc
        plain = capsys.readouterr()
        calls = []

        def counted(f):
            calls.append(f)
            return brute_force_solve(f)

        monkeypatch.setattr(formula, "brute_force_solve", counted)
        assert main(["solve", "--method", "brute", "--verify-oracle", "-v", str(path)]) == rc
        assert capsys.readouterr() == plain
        assert len(calls) == 1

    def test_jobs_match_sequential(self, instance, capsys):
        rc1 = main(["solve", "--method", "det", "--graph", "cycle",
                    "--block-cap", "729", str(instance)])
        out1 = capsys.readouterr().out
        rc2 = main(["solve", "--method", "det", "--graph", "cycle",
                    "--block-cap", "729", "--jobs", "2", str(instance)])
        out2 = capsys.readouterr().out
        assert (rc1, out1) == (rc2, out2)

    @pytest.mark.parametrize("method", ["det", "schoening"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_1(self, instance, capsys, method, jobs):
        rc = main(["solve", "--method", method, "--seed", "1", "--block-cap", "729",
                   "--jobs", jobs, str(instance)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "jobs" in captured.err

    @pytest.mark.parametrize("bad", [["--reps", "0"], ["--steps-mult", "-1"], ["--jobs", "0"]],
                             ids=["reps", "steps-mult", "jobs"])
    def test_walk_bad_input_fails_before_output(self, instance, capsys, bad):
        # no --seed: the fresh seed is not printed either
        rc = main(["solve", "--method", "schoening", *bad, str(instance)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("method", ["det", "schoening", "brute"])
    def test_verify_oracle_over_cap_fails_before_output(self, tmp_path, capsys, method):
        # 3^16 > BRUTE_FORCE_CAP: no solve runs and no fresh seed is printed
        path = tmp_path / "big.csp"
        assert main(["gen", "--n", "16", "--d", "3", "--k", "3", "--m", "60", "--seed", "1",
                     "-o", str(path)]) == 0
        rc = main(["solve", "--method", method, "--verify-oracle", "-v", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: search space 3^16 exceeds cap 10000000\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_brute_memory_does_not_grow_with_the_space(self, tmp_path):
        # an UNSAT instance scans all 3^13 assignments; the whole grid at
        # once peaked at about 400 MB
        path = tmp_path / "unsat13.csp"
        path.write_text(serialize_instance(generate_random(13, 3, 3, 700, 3)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", BRUTE_PEAK, str(path)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:-1] == ["s UNSATISFIABLE"]
        assert lines[-1].startswith("exit 20 peak ")
        assert float(lines[-1].split()[-1]) < 100

    def test_missing_file_exit_1(self, capsys):
        rc = main(["solve", "/nonexistent/no.csp"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_hypercube_requires_power_of_two(self, tmp_path, capsys):
        path = tmp_path / "d3.csp"
        path.write_text("p csp 2 3 0\n")
        rc = main(["solve", "--graph", "hypercube", str(path)])
        assert rc == 1
        assert "power of 2" in capsys.readouterr().err

    def test_custom_graph_file(self, tmp_path, capsys):
        gpath = tmp_path / "cycle.g"
        gpath.write_text("g 3\n1 2\n2 3\n3 1\n")
        ipath = tmp_path / "i.csp"
        ipath.write_text("p csp 2 3 1\n1 1 2 2 0\n")
        rc = main(["solve", "--graph", f"file:{gpath}", "--block-cap", "9", str(ipath)])
        capsys.readouterr()
        assert rc == 10

    def test_irregular_graph_file_rejected(self, tmp_path, capsys):
        gpath = tmp_path / "path.g"
        gpath.write_text("g 3\n1 2\n2 1\n2 3\n3 2\n")
        ipath = tmp_path / "i.csp"
        ipath.write_text("p csp 2 3 1\n1 1 2 2 0\n")
        rc = main(["solve", "--graph", f"file:{gpath}", str(ipath)])
        assert rc == 1
        assert "not distance-regular" in capsys.readouterr().err

    def test_output_file(self, instance, tmp_path):
        out = tmp_path / "witness.txt"
        rc = main(["solve", "--method", "det", "--block-cap", "729",
                   "-o", str(out), str(instance)])
        assert rc == 10
        assert out.read_text().startswith("s SATISFIABLE")


class TestCode:
    def test_emit_and_reverify(self, capsys):
        rc = main(["code", "--graph", "cycle", "--d", "3", "--n", "4",
                   "--k", "3", "--block-cap", "81"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        tag, d, n, r, count = lines[0].split()
        assert tag == "code"
        codewords = tuple(tuple(int(t) for t in line.split()) for line in lines[1:])
        assert len(codewords) == int(count)
        code = product_code(directed_cycle(int(d)), [(codewords, int(r))])
        assert code.n == int(n)
        assert verify_cover(code)

    def test_negative_n_exit_1(self, capsys):
        rc = main(["code", "--d", "3", "--k", "3", "--n", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: n must be nonnegative")


class TestVolume:
    def test_shells_and_volume(self, capsys):
        rc = main(["volume", "--graph", "cycle", "--d", "3", "--n", "2", "--r", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shells 1 2 3" in out
        assert "volume 6" in out

    def test_all_shells_without_r(self, capsys):
        rc = main(["volume", "--graph", "cycle", "--d", "3", "--n", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shells 1 2 3 2 1" in out

    def test_negative_radius_fails_before_output(self, capsys):
        rc = main(["volume", "--graph", "cycle", "--d", "3", "--n", "2", "--r", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: radius must be nonnegative")

    def test_full_table_limit(self, capsys):
        # a full table of 1501 shells is printed (cycle: s = 2 at n = 750); a
        # larger one is refused before any output, and --r still answers
        cycle = ["volume", "--graph", "cycle", "--d", "3"]
        assert main([*cycle, "--n", "750"]) == 0
        out = capsys.readouterr().out.split()
        assert out[:2] == ["shells", "1"] and len(out) == 1 + 1501
        for args, shells in [(cycle + ["--n", "751"], 1503), (["volume", "--d", "3", "--n", "1501"], 1502)]:
            assert main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: a full table of {shells} shells is over 1501; ask for shells 0..r with --r\n"
            assert main([*args, "--r", "1"]) == 0
            assert capsys.readouterr().out.startswith("shells 1 ")

    def test_r_bounds_the_work(self, capsys):
        # only shells 0..r are built, so n = 100000 answers at once with the
        # 1 + 2n + 2n(n-1) assignments within Hamming distance 2
        rc = main(["volume", "--d", "3", "--n", "100000", "--r", "2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["shells 1 200000 19999800000", "volume 20000000001"]


class TestPredict:
    def test_values(self, capsys):
        rc = main(["predict", "--d", "3", "--k", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "schoening 2.000000" in out
        assert "det-complete 2.250000" in out
        assert "det-cycle 2.076923" in out
        assert "recommended cycle" in out

    def test_recommends_complete_for_d2(self, capsys):
        # at d = 2 the two bases coincide
        rc = main(["predict", "--d", "2", "--k", "3"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "det-complete 1.500000 (3/2)" in out and "det-cycle 1.500000 (3/2)" in out
        assert out[-1] == "recommended complete"

    def test_recommends_cycle_for_d3(self, capsys):
        rc = main(["predict", "--d", "3", "--k", "3"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "det-complete 2.250000 (9/4)" in out and "det-cycle 2.076923 (27/13)" in out
        assert out[-1] == "recommended cycle"

    def test_with_graph(self, capsys):
        rc = main(["predict", "--d", "4", "--k", "3", "--graph", "hypercube"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "det-graph 2.938776" in out

    def test_graph_base_included(self, capsys):
        # the hypercube row comes after the three fixed rows, before the recommendation
        rc = main(["predict", "--d", "4", "--k", "3", "--graph", "hypercube"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[-2] == "det-graph 2.938776 (144/49)"


class TestMarkov:
    def test_output(self, capsys):
        rc = main(["markov", "--d", "3", "--k", "3", "--j", "2", "--trials", "2000",
                   "--max-steps", "500", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lambda 0.366025403784" in out
        assert "P[2] 0.133974596216" in out
        lines = out.splitlines()
        within = lines.index("P[2] within 500 steps 0.133974596216")
        assert lines[within + 1].startswith("simulated ")

    @pytest.mark.parametrize("bad", [["--trials", "0"], ["--j", "-1"], ["--max-steps", "-1"]])
    def test_bad_input_fails_before_output(self, capsys, bad):
        # no --seed: the fresh seed is not printed either
        rc = main(["markov", "--d", "3", "--k", "3", *bad])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


EDGELESS = "g 3\n"
FOUR_COLORS = "g 4\n1 2\n2 3\n3 4\n4 1\n"


class TestInputChecks:
    """Each bad input is one `error:` line, exit 1, and no output."""

    @pytest.mark.parametrize("argv,instance,graph,message", [
        (["solve"], "p csp 3 x 2\n", None, "non-integer field in header"),
        (["solve"], "p csp 3 1 2\n", None, "invalid header values"),
        (["solve"], "p csp 3 3 1\n1 a 0\n", None, "non-integer token"),
        (["solve"], "p csp 3 3 1\n1 1 0 2 2 0\n", None, "unexpected 0 before end"),
        (["solve"], "p csp 3 3 1\n1 1 2 0\n", None, "unpaired trailing integer"),
        (["gen", "--n", "4", "--d", "3", "--k", "0", "--m", "3"], None, None, "k must be at least 1"),
        (["solve", "--graph", "file:"], "p csp 2 3 1\n1 1 0\n", FOUR_COLORS,
         "graph file has 4 colors, expected 3"),
        (["solve", "--graph", "nosuch"], "p csp 2 3 1\n1 1 0\n", None, "unknown graph"),
        (["code", "--d", "3", "--n", "4", "--k", "3", "--graph", "file:"], None, EDGELESS,
         "at least one outgoing edge per color"),
        (["code", "--d", "3", "--n", "4", "--k", "0"], None, None, "k must be at least 1"),
        (["predict", "--d", "3", "--k", "3", "--graph", "file:"], None, EDGELESS,
         "out-degree at least 1"),
        (["solve", "--graph", "file:"], "p csp 2 3 1\n1 1 0\n", "g 3\n1 x\n",
         "line 2: non-integer token in edge line '1 x'"),
        (["solve", "--graph", "file:"], "p csp 2 3 1\n1 1 0\n", "g three\n",
         "line 1: non-integer color count in header 'g three'"),
        (["volume", "--d", "3", "--n", "4", "--r", "1", "--graph", "file:"], None, "g 3\n1 x\n",
         "line 2: non-integer token in edge line '1 x'"),
        (["volume", "--d", "3", "--n", "4", "--r", "1", "--graph", "file:"], None, "g three\n",
         "line 1: non-integer color count in header 'g three'"),
        (["solve"], f"p csp 2 3 1\n1 {'1' * 5000} 0\n", None, "line 2: non-integer token"),
        (["volume", "--d", "3", "--n", "4", "--r", "1", "--graph", "file:"], None, f"g 3\n1 {'2' * 5000}\n",
         "line 2: non-integer token in edge line"),
    ], ids=["header-field", "header-values", "token", "early-zero", "unpaired", "gen-k",
            "graph-colors", "graph-name", "code-edgeless", "code-k", "predict-edgeless",
            "solve-graph-token", "solve-graph-header", "volume-graph-token", "volume-graph-header",
            "token-over-int-digits", "graph-token-over-int-digits"])
    def test_rejected_before_output(self, tmp_path, capsys, argv, instance, graph, message):
        argv = list(argv)
        if graph is not None:
            path = tmp_path / "g.txt"
            path.write_text(graph)
            argv[-1] += str(path)
        if instance is not None:
            path = tmp_path / "i.csp"
            path.write_text(instance)
            argv.append(str(path))
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert message in captured.err


class TestOracleCheck:
    """--verify-oracle fails a wrong det answer before its output."""

    @pytest.mark.parametrize("text,wrong,message", [
        ("p csp 1 2 2\n1 1 0\n1 2 0\n", search.SolveResult("sat", (1,), search.SearchStats()),
         "solver returned SAT but exhaustive search finds no witness"),
        ("p csp 2 2 1\n1 1 0\n", search.SolveResult("unsat", None, search.SearchStats()),
         "solver returned UNSAT but exhaustive search finds a witness"),
    ], ids=["wrong-sat", "wrong-unsat"])
    def test_wrong_answer_fails(self, tmp_path, capsys, monkeypatch, text, wrong, message):
        path = tmp_path / "i.csp"
        path.write_text(text)
        monkeypatch.setattr(search, "det_solve", lambda *args, **kwargs: wrong)
        rc = main(["solve", "--method", "det", "--verify-oracle", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestUsage:
    def test_no_args_exit_1(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_bench_is_gone(self, capsys):
        rc = main(["bench", "--d", "3", "--k", "3", "--n", "5", "--m", "10", "--seed", "5"])
        assert rc == 1
        assert capsys.readouterr().out == ""


@pytest.fixture
def restore_logging():
    root = logging.getLogger()
    saved = root.level, root.handlers[:]
    yield
    root.setLevel(saved[0])
    root.handlers[:] = saved[1]


class TestLogLevel:
    ARGS = ["code", "--graph", "cycle", "--d", "3", "--n", "5", "--k", "3", "--block-cap", "243"]

    def test_debug_reaches_covercode(self, capsys, restore_logging):
        build_code.cache_clear()
        assert main(self.ARGS) == 0
        plain = capsys.readouterr()
        build_code.cache_clear()
        assert main(self.ARGS + ["--log-level", "debug"]) == 0
        logged = capsys.readouterr()
        assert logged.out == plain.out
        assert plain.err == ""
        assert "DEBUG dkcsp.covercode: greedy cover d=3 n=5" in logged.err
        assert "(1458 gain updates)" in logged.err
        assert "DEBUG dkcsp.covercode: code d=3 n=5 k=3" in logged.err

    def test_debug_reports_constraint_state(self, instance, capsys, restore_logging):
        argv = ["solve", "--method", "schoening", "--reps", "1", "--seed", "1", str(instance)]
        assert main(argv + ["--log-level", "debug"]) == 10
        # n = 6 at d = 3 needs two groups (4^6 > 2^10), so two of 3 with 4^3 entries each
        assert ("DEBUG dkcsp.search: constraint state n=6 d=3 m=10: 2 groups of 3, "
                "128 table entries") in capsys.readouterr().err

    def test_rejects_unknown_level(self, capsys):
        assert main(self.ARGS + ["--log-level", "loud"]) == 1
        assert capsys.readouterr().out == ""
