"""Run `dkcsp` operations as fresh processes, check every answer, and reduce
the samples to the end-to-end metrics.

One closed-loop client runs one operation at a time. Each operation is its
own process, so it pays the code build that a real `dkcsp solve` pays (the
program caches codes per process) and gets its own CPU and peak-RSS
accounting from wait4, pool workers included.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from workloads import D, K, Op

OP_TIMEOUT_S = 60.0
STARTUP_LAUNCHES = 7
STATS_RE = re.compile(r"stats: nodes=(\d+) balls=(\d+) reps=(\d+) steps=(\d+)")
MARKOV_RE = re.compile(r"simulated (\S+) stderr (\S+)")


@dataclass
class Sample:
    """One finished operation: its resources, its exact counts and its verdict."""

    op: Op
    wall: float
    cpu: float
    rss_mb: float
    counts: dict = field(default_factory=dict)
    error: Optional[str] = None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the group is left (orphaned pool workers included)."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# Each operation is started by this small launcher process rather than by the
# benchmark itself: on Linux a child's peak RSS includes the memory image of
# the process it was spawned from, and the benchmark's own set-up (exhaustive
# search over up to 3^12 assignments) would otherwise show up in every
# operation's peak RSS. The launcher times the operation and reports its
# rusage, which covers every process of the operation it reaped.
LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable] + sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    json.dump([wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, os.waitstatus_to_exitcode(status)], fh)
"""


def run_process(argv: tuple[str, ...], env: dict, workdir: str, timeout: float = OP_TIMEOUT_S):
    """Run `python <argv>` through the launcher, in its own process group; return
    (wall s, user+sys CPU s, peak RSS MB, exit code or None on timeout, stdout, stderr)."""
    out_path, err_path, result_path = (os.path.join(workdir, f"op.{ext}") for ext in ("stdout", "stderr", "json"))
    if os.path.exists(result_path):
        os.remove(result_path)
    timed_out = threading.Event()
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, result_path, *argv], stdout=out,
                                stderr=err, env=env, start_new_session=True)

        def expire() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            timer.join()
        if timed_out.is_set():
            _kill_group(proc.pid)  # pool workers outlive a killed parent
        _wait_group_gone(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    if timed_out.is_set() or proc.returncode != 0:
        return timeout if timed_out.is_set() else 0.0, 0.0, 0.0, None, stdout, stderr
    with open(result_path, encoding="utf-8") as fh:
        wall, cpu, maxrss_kb, code = json.load(fh)
    return wall, cpu, maxrss_kb / 1024.0, code, stdout, stderr


def check_answer(op: Op, code: Optional[int], stdout: str, stderr: str, dk, formulas: dict):
    """Return (error or None, exact counts) for one operation's output."""
    if code is None:
        return "timed out or killed", {}
    if code != op.exit_code:
        return f"exit code {code}, expected {op.exit_code}: {stderr.strip()[-200:]}", {}
    if op.kind == "markov":
        found = MARKOV_RE.search(stdout)
        if not found:
            return "no 'simulated' line", {}
        freq, se = float(found.group(1)), float(found.group(2))
        return markov_error(dk, freq, se), {"hits": round(freq * op.size.trials)}
    found = STATS_RE.search(stderr)
    if not found:
        return "no stats line on stderr", {}
    counts = dict(zip(("nodes", "balls", "reps", "steps"), map(int, found.groups())))
    lines = stdout.splitlines()
    status = lines[0] if lines else ""
    want = {"sat": "s SATISFIABLE", "unsat": "s UNSATISFIABLE", "unknown": "s UNKNOWN"}[op.expect]
    if status != want:
        return f"answered {status!r}, expected {want!r}", counts
    if op.expect == "sat":
        if len(lines) < 2 or not lines[1].startswith("v "):
            return "SAT answer without a 'v' line", counts
        f = formulas[op.path]
        try:
            witness = tuple(int(t) for t in lines[1].split()[1:])
            ok, bad = dk.formula.evaluate(f, witness)
        except ValueError as exc:
            return f"malformed witness: {exc}", counts
        if not ok:
            return f"witness falsifies constraint {bad}", counts
    if op.expect == "unknown":
        want_steps = op.size.reps * 3 * (D - 1) * op.size.n
        if counts["reps"] != op.size.reps or counts["steps"] != want_steps:
            return f"walk ran reps={counts['reps']} steps={counts['steps']}, expected " \
                   f"{op.size.reps} and {want_steps}", counts
    return None, counts


def markov_error(dk, freq: float, se: float) -> Optional[str]:
    exact = dk.analysis.reach_probability(D, K, 2)
    if abs(freq - exact) > 3 * se + 0.005:
        return f"simulated {freq} is not within 3*{se} + 0.005 of lambda^2 = {exact:.6f}"
    return None


def search_error(unsat: bool, balls: int, nodes: int, codewords: int, bound: int) -> Optional[str]:
    """An UNSAT answer must have searched every ball, and the node total may not
    exceed balls x the per-ball bound."""
    if unsat and balls != codewords:
        return f"UNSAT after {balls} of {codewords} balls"
    if nodes > balls * bound:
        return f"{nodes} nodes exceed {balls} balls x {bound}"
    return None


def run_op(op: Op, env: dict, workdir: str, dk, formulas: dict) -> Sample:
    wall, cpu, rss, code, out, err = run_process(op.argv, env, workdir)
    error, counts = check_answer(op, code, out, err, dk, formulas)
    return Sample(op, wall, cpu, rss, counts, error)


def closed_loop(ops: list[Op], seconds: float, env: dict, workdir: str, dk, formulas: dict):
    """Run the round at least once, then keep cycling through it until `seconds` pass.

    A `dkcsp --help` launch precedes each operation, so the start-up samples
    spread over the run as the operations do. Returns (samples, start-up walls).
    """
    samples, startups = [], []
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        startups.append(startup_launch(env, workdir))
        samples.append(run_op(ops[i % len(ops)], env, workdir, dk, formulas))
        i += 1
    return samples, startups


def startup_launch(env: dict, workdir: str) -> float:
    """Wall time of a fresh process that imports dkcsp.cli and exits (--help)."""
    wall, _, _, code, _, err = run_process(("-m", "dkcsp.cli", "--help"), env, workdir)
    if code != 0:
        raise RuntimeError(f"dkcsp --help exited {code}: {err.strip()[-200:]}")
    return wall


def startup_seconds(env: dict, workdir: str, walls: tuple[float, ...] = ()) -> float:
    """Median start-up time over `walls` topped up to STARTUP_LAUNCHES launches."""
    walls = list(walls)
    while len(walls) < STARTUP_LAUNCHES:
        walls.append(startup_launch(env, workdir))
    return statistics.median(walls)


def color_graph(dk, name: str):
    return dk.colorgraph.complete(D) if name == "complete" else dk.colorgraph.directed_cycle(D)


def ball_bound(dk, g, k: int, radius: int) -> int:
    """Most nodes one ball search can visit: sum over i <= r of (k * delta)^i."""
    return sum((k * dk.colorgraph.profile(g).delta) ** i for i in range(radius + 1))


def add_codewords(samples: list[Sample], dk) -> None:
    """Record each UNSAT operation's codeword count: it must have searched every ball.

    SAT operations get theirs from the traced run, where the code is built
    anyway; building it here would add 7 s to every det-sat run."""
    for s in samples:
        op = s.op
        if op.expect != "unsat" or s.error:
            continue
        g = color_graph(dk, op.graph)
        code = dk.covercode.build_code(g, op.size.n, K, op.size.block_cap)
        s.counts["codewords"] = len(code.codewords)
        s.error = search_error(True, s.counts["balls"], s.counts["nodes"], len(code.codewords),
                               ball_bound(dk, g, K, code.radius))


def per_op(samples: list[Sample]) -> dict[str, list[Sample]]:
    grouped: dict[str, list[Sample]] = {}
    for s in samples:
        grouped.setdefault(s.op.key, []).append(s)
    return grouped


def repeat_errors(samples: list[Sample]) -> dict[str, str]:
    """Exact counts must repeat whenever one operation runs twice."""
    errors = {}
    for key, group in per_op(samples).items():
        seen = {tuple(sorted(s.counts.items())) for s in group if s.error is None}
        if len(seen) > 1:
            errors[key] = f"counts differ between repeats: {sorted(seen)}"
    return errors


def mark_failed(samples: list[Sample], errors: dict[str, str]) -> None:
    for s in samples:
        if s.error is None and s.op.key in errors:
            s.error = errors[s.op.key]


def end_to_end(samples: list[Sample], startup: float) -> dict[str, tuple[float, str]]:
    """Per-operation medians; wall and CPU are summed over one round, RSS is the largest."""
    grouped = per_op(samples)

    def med(attr: str) -> list[float]:
        return [statistics.median(getattr(s, attr) for s in g) for g in grouped.values()]

    return {
        "wall_s": (sum(med("wall")), "s"),
        "cpu_s": (sum(med("cpu")), "s"),
        "peak_rss_mb": (max(med("rss_mb")), "MB"),
        "setup_s": (startup, "s"),
    }
