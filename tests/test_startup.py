"""Start-up guard: the commands that never build an array load neither numpy
nor the process pool, and those that do load numpy start no BLAS threads.

A det solve never loads numpy: every block of its covering code is built on
plain lists, from 3^3 blocks up to a 3^8 block and the two 3^6 blocks of a
default n = 12 code. Default det solves are bounded: the anchor
generate_random(12, 3, 3, 400, 6) and a dense d = 4, n = 10 UNSAT instance
each answer within 10 s from a fresh process. A solve whose witness lies in
the first balls of the code's first row loads neither numpy nor the pool,
even for 3^9 blocks at --jobs 2: that row is searched while the greedy makes
its first picks. A graph whose inward distance profiles differ between
colors builds its code on lists too.
`--help` loads no dkcsp module besides the CLI, and the random walk none of
the code-building modules. `--help`, det solves and the walk load none of
the standard-library modules the solvers do without (dataclasses, logging,
fractions, inspect), and markov none that numpy does not load itself: its
simulation threads come from `threading`, not `concurrent.futures`, and all
have ended when the command returns.

Each command runs in a fresh interpreter with PYTHONPATH=src, as
`python -m dkcsp.cli ...` does, and reports its exit code, the modules the
command added to sys.modules, which of the guarded ones are among them, the
OPENBLAS_NUM_THREADS it left, threading.active_count() and, on Linux, how
many threads the process has. The two tests that assert that count poll it
for up to 2 s until only one is left, since a joined thread can stay listed
for a moment after join returns.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dkcsp.colorgraph import complete, directed_cycle
from dkcsp.covercode import plan_blocks
from dkcsp.formula import brute_force_solve, generate_random, serialize_instance

ROOT = Path(__file__).resolve().parent.parent
GUARDED = ("numpy", "multiprocessing", "concurrent.futures.process")

PROBE = """
import json, os, runpy, sys
before = set(sys.modules)
sys.argv = ["dkcsp", *sys.argv[1:]]
try:
    runpy.run_module("dkcsp.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
added = set(sys.modules) - before
import threading, time
threads = None
if os.path.isdir("/proc/self/task"):
    # a joined thread can stay listed for a moment after join returns
    deadline = time.monotonic() + %(poll_s)s
    while (threads := len(os.listdir("/proc/self/task"))) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
print(json.dumps({"code": code, "added": sorted(added), "loaded": [m for m in %(guarded)r if m in added],
                  "dkcsp": sorted(m for m in added if m.startswith("dkcsp.")),
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads,
                  "active": threading.active_count()}))
"""
BUILDING = {"dkcsp.analysis", "dkcsp.covercode", "dkcsp.volume"}
# standard-library modules no solve path needs: records and radius selection
# do without them, and nothing logs
UNNEEDED = {"dataclasses", "logging", "fractions", "inspect"}


def run_python(script, *argv, blas=None, timeout=120):
    """A fresh interpreter running `script` with PYTHONPATH=src, and
    OPENBLAS_NUM_THREADS set to `blas`, or unset when it is None."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


def probe_script(poll_s=0):
    """PROBE, polling /proc/self/task for up to poll_s seconds until one
    thread is left; only the tests that assert the thread count wait."""
    return PROBE % {"guarded": GUARDED, "poll_s": poll_s}


def probe(*argv, blas=None, timeout=120, poll_s=0):
    """The probe's report and stdout lines of one `dkcsp` run."""
    proc = run_python(probe_script(poll_s), *argv, blas=blas, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def run_cli(*argv):
    """(exit code, guarded modules loaded, stdout lines) of one `dkcsp` run."""
    report, lines = probe(*argv)
    return report["code"], report["loaded"], lines


def unsat_file(tmp_path_factory, n, m):
    for seed in range(50):
        f = generate_random(n, 3, 3, m, seed)
        if brute_force_solve(f) is None:
            path = tmp_path_factory.mktemp("startup") / f"unsat{n}.csp"
            path.write_text(serialize_instance(f))
            return str(path)
    raise AssertionError("no UNSAT instance among the seeds tried")


@pytest.fixture(scope="module")
def unsat_instance(tmp_path_factory):
    return unsat_file(tmp_path_factory, 6, 150)


@pytest.fixture(scope="module")
def unsat_instance_8(tmp_path_factory):
    return unsat_file(tmp_path_factory, 8, 300)


@pytest.fixture(scope="module")
def unsat_instance_10(tmp_path_factory):
    return unsat_file(tmp_path_factory, 10, 400)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["gen", "--n", "5", "--d", "3", "--k", "3", "--m", "10", "--seed", "1"],
        ["volume", "--graph", "cycle", "--d", "3", "--n", "6", "--r", "2"],
        ["predict", "--d", "3", "--k", "3", "--graph", "cycle"],
    ],
    ids=["help", "gen", "volume", "predict"],
)
def test_commands_load_no_numpy(argv):
    code, loaded, lines = run_cli(*argv)
    assert code == 0
    assert lines
    assert loaded == []


def test_walk_solve_loads_no_numpy(unsat_instance):
    code, loaded, lines = run_cli("solve", "--method", "schoening", "--graph", "cycle",
                                  "--reps", "20", "--seed", "3", unsat_instance)
    assert (code, lines) == (0, ["s UNKNOWN"])
    assert loaded == []


@pytest.mark.parametrize("argv,modules", [
    (["--help"], []),
    (["solve", "--method", "schoening", "--reps", "5", "--seed", "1"],
     ["dkcsp.colorgraph", "dkcsp.formula", "dkcsp.search", "dkcsp.walk"]),
], ids=["help", "walk"])
def test_commands_load_no_code_modules(unsat_instance, argv, modules):
    report, lines = probe(*argv, *([unsat_instance] if "solve" in argv else []))
    assert report["code"] == 0
    assert lines
    assert report["dkcsp"] == modules
    assert not BUILDING & set(report["dkcsp"])


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["solve", "--method", "det", "--graph", "complete", "--block-cap", "4096", "--jobs", "1"],
    ["solve", "--method", "det", "--graph", "cycle", "--block-cap", "4096", "--jobs", "1"],
    ["solve", "--method", "schoening", "--graph", "cycle", "--reps", "20", "--seed", "3"],
], ids=["help", "det-complete", "det-cycle", "walk"])
def test_commands_load_no_unneeded_stdlib(unsat_instance_10, argv):
    # the det solves are shaped as perfbench's det-unsat: n=10 in two 3^5 blocks
    report, lines = probe(*argv, *([unsat_instance_10] if "solve" in argv else []))
    assert report["code"] == (0 if "det" not in argv else 20)
    assert lines
    assert UNNEEDED.isdisjoint(report["added"])


def test_markov_loads_no_unneeded_stdlib():
    report, lines = probe("markov", "--d", "3", "--k", "3", "--seed", "1", "--trials", "2000")
    assert report["code"] == 0
    assert lines[-1].startswith("simulated ")
    assert report["loaded"] == ["numpy"]
    assert report["dkcsp"] == ["dkcsp.analysis"]
    assert (UNNEEDED - {"inspect"}).isdisjoint(report["added"])  # numpy itself loads inspect


def test_threaded_markov_leaves_one_thread():
    # 20,000 walks are three chunks, so a second thread runs chunk 1
    report, lines = probe("markov", "--d", "3", "--k", "3", "--seed", "1", "--trials", "20000", poll_s=2)
    assert report["code"] == 0
    assert lines[-1].startswith("simulated ")
    assert {"concurrent.futures", "logging"}.isdisjoint(report["added"])
    assert report["active"] == 1  # every chunk thread was joined
    if sys.platform.startswith("linux"):
        assert report["threads"] == 1  # and has left the process


@pytest.fixture(scope="module")
def det_sat_instances(tmp_path_factory):
    """Planted instances shaped as perfbench's det-sat: n=18, m=250."""
    rng, paths = random.Random(5), []
    for i in range(2):
        planted = tuple(rng.randint(1, 3) for _ in range(18))
        f = generate_random(18, 3, 3, 250, rng.getrandbits(64), planted)
        paths.append(tmp_path_factory.mktemp("startup") / f"sat{i}.csp")
        paths[-1].write_text(serialize_instance(f))
    return [str(p) for p in paths]


@pytest.mark.parametrize("graph", ["complete", "cycle"])
def test_first_row_witness_loads_no_numpy_or_pool(det_sat_instances, graph):
    # two 3^9 blocks at --jobs 2: the witness is in the first row's balls
    for path in det_sat_instances:
        code, loaded, lines = run_cli("solve", "--method", "det", "--graph", graph,
                                      "--block-cap", "19683", "--jobs", "2", path)
        assert (code, lines[0]) == (10, "s SATISFIABLE")
        assert loaded == []


# d, n whose default code is two blocks, of 3^6 or 4^5 points
DEFAULT_SAT = {"d3-n12": (3, 12), "d4-n10": (4, 10)}


@pytest.mark.parametrize("graph", ["complete", "cycle"])
@pytest.mark.parametrize("shape", list(DEFAULT_SAT))
def test_default_cap_witness_in_ball_one_needs_no_code_build(tmp_path, shape, graph):
    # codeword 0 joins each block's first pick, (1, ..., 1); the planted point
    # is one edge away from it, within the first block's radius, so ball 1
    # holds a witness
    d, n = DEFAULT_SAT[shape]
    g = complete(d) if graph == "complete" else directed_cycle(d)
    (size, r), (_, _) = plan_blocks(g, n, 3)
    assert (size, g.distances[0][1]) == (n // 2, 1) and r >= 1
    f = generate_random(n, d, 3, 10 * n, 1, (2,) + (1,) * (n - 1))
    path = tmp_path / "sat.csp"
    path.write_text(serialize_instance(f))
    report, lines = probe("solve", "--method", "det", "--graph", graph, str(path), timeout=10)
    assert (report["code"], lines[0]) == (10, "s SATISFIABLE")
    assert report["loaded"] == []


def test_unsat_two_block_solve_loads_the_pool(unsat_instance_10):
    code, loaded, lines = run_cli("solve", "--method", "det", "--graph", "cycle",
                                  "--block-cap", "4096", "--jobs", "2", unsat_instance_10)
    assert (code, lines) == (20, ["s UNSATISFIABLE"])
    assert loaded == ["multiprocessing", "concurrent.futures.process"]


def test_det_solve_still_answers(unsat_instance):
    code, loaded, lines = run_cli("solve", "--method", "det", "--graph", "cycle",
                                  "--block-cap", "81", unsat_instance)
    assert (code, lines) == (20, ["s UNSATISFIABLE"])
    assert loaded == []  # 3^3 blocks: the code is built on plain lists


@pytest.mark.parametrize("graph", ["complete", "cycle"])
def test_small_block_det_solve_loads_no_numpy(unsat_instance_10, graph):
    # the det-unsat benchmark's shape: n=10 in two 3^5 blocks
    code, loaded, lines = run_cli("solve", "--method", "det", "--graph", graph,
                                  "--block-cap", "4096", "--jobs", "1", unsat_instance_10)
    assert (code, lines) == (20, ["s UNSATISFIABLE"])
    assert loaded == []


def test_large_block_det_solve_loads_no_numpy(unsat_instance_8):
    # one 3^8 block, built on lists like every other
    code, loaded, lines = run_cli("solve", "--method", "det", "--graph", "cycle", "--block-cap", "6561",
                                  "--jobs", "1", unsat_instance_8)
    assert (code, lines) == (20, ["s UNSATISFIABLE"])
    assert loaded == []


# the default det solves that hung on the one 3^12 or 4^10 block they built
# (22-36 s) answer within DEFAULT_SOLVE_S from a fresh process; n = 12 is the
# anchor, whose default code is its cap-4096 code
DEFAULT_SOLVE_S = 10
DEFAULT_UNSAT = {
    "d3-n12": ((12, 3, 3, 400, 6), {"complete": 348300, "cycle": 267289}),
    "d4-n10": ((10, 4, 3, 1000, 0), {"complete": 372736, "cycle": 851968}),
}


@pytest.mark.parametrize("graph", ["complete", "cycle"])
@pytest.mark.parametrize("shape", list(DEFAULT_UNSAT))
def test_default_det_solve_is_bounded(tmp_path, shape, graph):
    args, nodes = DEFAULT_UNSAT[shape]
    path = tmp_path / "unsat.csp"
    path.write_text(serialize_instance(generate_random(*args)))
    proc = run_python(probe_script(), "solve", "-v", "--graph", graph, str(path), timeout=DEFAULT_SOLVE_S)
    assert proc.returncode == 0, proc.stderr
    *lines, report = proc.stdout.splitlines()
    report = json.loads(report)
    assert (report["code"], lines) == (20, ["s UNSATISFIABLE"])
    assert report["loaded"] == []
    assert f"stats: nodes={nodes[graph]} " in proc.stderr


# cli.main sets OPENBLAS_NUM_THREADS before any solve; brute force is the
# solve that loads numpy
BRUTE = ("solve", "--method", "brute")


def test_det_solve_starts_no_blas_threads(unsat_instance_8):
    report, lines = probe(*BRUTE, unsat_instance_8, poll_s=2)
    assert (report["code"], lines) == (20, ["s UNSATISFIABLE"])
    assert report["blas"] == "1"
    assert report["loaded"] == ["numpy"]
    if sys.platform.startswith("linux"):
        assert report["threads"] == 1  # numpy is loaded, OpenBLAS's pool is not


def test_callers_blas_thread_count_wins(unsat_instance_8):
    report, lines = probe(*BRUTE, unsat_instance_8, blas="2")
    assert (report["code"], lines) == (20, ["s UNSATISFIABLE"])
    assert report["blas"] == "2"
    assert report["loaded"] == ["numpy"]


# out-profile (1, 2, 1) for every color, in-degrees (3, 3, 1, 1): the graph of
# test_covercode.NON_UNIFORM_DUAL
NON_UNIFORM_DUAL = "g 4\n1 2\n1 4\n2 1\n2 3\n3 1\n3 2\n4 1\n4 2\n"


@pytest.fixture(scope="module")
def non_uniform_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "non_uniform.g"
    path.write_text(NON_UNIFORM_DUAL)
    return f"file:{path}"


def test_non_uniform_code_loads_no_numpy(non_uniform_graph):
    # one 4^6 block: the greedy's inward balls come from the distance columns
    code, loaded, lines = run_cli("code", "--d", "4", "--n", "6", "--k", "3", "--graph", non_uniform_graph)
    assert code == 0
    assert lines[0] == "code 4 6 1 514"
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == (
        "5f29e3137d4ae122cb8f6a6db89e10fef2b8929c2f358da5a4d9cbc798f8f79b")
    assert loaded == []


def test_non_uniform_det_solve_loads_no_numpy(tmp_path, non_uniform_graph):
    f = generate_random(6, 4, 3, 800, 0)
    assert brute_force_solve(f) is None
    path = tmp_path / "unsat.csp"
    path.write_text(serialize_instance(f))
    code, loaded, lines = run_cli("solve", "--method", "det", "--graph", non_uniform_graph, str(path))
    assert (code, lines) == (20, ["s UNSATISFIABLE"])
    assert loaded == []
