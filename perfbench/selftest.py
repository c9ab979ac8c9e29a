"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs tiny versions of all four workloads, untraced and traced, through
   run.main, and checks that each prints exactly the metrics BENCHMARK.json
   names, with their units, and counts no failure.
2. Feeds doctored answers through the same operation runner: a corrupted
   witness, an UNSAT answer flipped to SAT and a SAT answer flipped to UNSAT
   must each count as failed, and so must an operation that overruns its
   timeout.
3. Runs the ROADMAP anchor instance, generate_random(12, 3, 3, 400, seed=6),
   as a det-unsat operation (about 15 s) and checks the exact node totals
   348,300 (complete) and 267,289 (cycle).

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import measure
import run
from workloads import CLI, TINY_SIZES, Op, Size, prepare

ANCHOR_NODES = {"complete": 348_300, "cycle": 267_289}


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def metric_names(failures: list[str]) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace)], sizes=TINY_SIZES)
            result = json.loads(out.getvalue().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: correct, nothing failed", failures)
            check(got == want, f"{workload} trace={trace}: metrics and units as in BENCHMARK.json", failures)
            if trace:
                print("     " + next(line for line in out.getvalue().splitlines() if line.startswith("self-time")))


def fake(op, stdout: str, stderr: str, code: int):
    """The same operation, answered by a stand-in program."""
    script = f"import sys; sys.stdout.write({stdout!r}); sys.stderr.write({stderr!r}); sys.exit({code})"
    return dataclasses.replace(op, argv=("-c", script))


def doctored_answers(failures: list[str], dk, env: dict) -> None:
    sat_op = prepare("det-sat", 3, run.WORKDIR, dk.formula, TINY_SIZES)[0]
    unsat_op = prepare("det-unsat", 3, run.WORKDIR, dk.formula, TINY_SIZES)[0]
    formulas = {}
    for op in (sat_op, unsat_op):
        with open(op.path, encoding="utf-8") as fh:
            formulas[op.path] = dk.formula.parse_instance(fh.read())
    f = formulas[sat_op.path]
    bad = [1] * f.n  # falsify the first constraint: put every literal's variable on its color
    for lit in f.constraints[0].literals:
        bad[lit.var - 1] = lit.color
    stats = "stats: nodes=1 balls=1 reps=0 steps=0\n"
    cases = [
        ("corrupted witness", fake(sat_op, "s SATISFIABLE\nv " + " ".join(map(str, bad)) + "\n", stats, 10)),
        ("UNSAT flipped to SAT", fake(unsat_op, "s SATISFIABLE\nv " + " ".join(["1"] * f.n) + "\n", stats, 10)),
        ("SAT flipped to UNSAT", fake(sat_op, "s UNSATISFIABLE\n", stats, 20)),
    ]
    samples, _ = measure.closed_loop([op for _, op in cases], 0, env, run.WORKDIR, dk, formulas)
    for (what, _), sample in zip(cases, samples):
        check(sample.error is not None, f"{what} counted as failed ({sample.error})", failures)
    wall, _, _, code, _, _ = measure.run_process(("-c", "import time; time.sleep(30)"), env, run.WORKDIR,
                                                 timeout=0.5)
    error, _ = measure.check_answer(sat_op, code, "", "", dk, formulas)
    check(code is None and wall < 5 and error is not None, f"overrun killed after {wall:.2f} s ({error})",
          failures)


def anchor(failures: list[str], dk, env: dict) -> None:
    path = os.path.join(run.WORKDIR, "anchor.csp")
    f = dk.formula.generate_random(12, 3, 3, 400, seed=6)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dk.formula.serialize_instance(f))
    size = Size(n=12, block_cap=4096)
    for graph, nodes in ANCHOR_NODES.items():
        argv = CLI + ("solve", "--method", "det", "--graph", graph, "--block-cap", "4096", "-v", path)
        op = Op(f"anchor/{graph}", "det", argv, "unsat", 20, path, graph, size)
        sample = measure.run_op(op, env, run.WORKDIR, dk, {path: f})
        check(sample.error is None and sample.counts.get("nodes") == nodes,
              f"anchor {graph}: {sample.counts.get('nodes')} nodes, expected {nodes} ({sample.wall:.1f} s)",
              failures)


def main() -> int:
    failures: list[str] = []
    dk = run.load_program()
    os.makedirs(run.WORKDIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=run.SRC)
    metric_names(failures)
    doctored_answers(failures, dk, env)
    anchor(failures, dk, env)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
