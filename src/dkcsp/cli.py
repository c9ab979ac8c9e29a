"""Command-line front end.

Subcommands: gen, solve, code, volume, predict, markov. Solving runs
exit 10 on SAT and 20 on UNSAT (solver-competition convention); other
successful runs exit 0, usage or runtime errors exit 1. All output is
deterministic given flags plus seed; when a randomized subcommand draws a
fresh seed, it prints it to stderr so the run can be reproduced.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .colorgraph import ColorGraph
    from .search import SolveResult

__all__ = ["main"]

EXIT_SAT = 10
EXIT_UNSAT = 20


def _graph_from_flag(name: str, d: int) -> ColorGraph:
    from .colorgraph import complete, directed_cycle, hypercube, parse_graph_file, profile

    if name == "complete":
        return complete(d)
    if name == "cycle":
        return directed_cycle(d)
    if name == "hypercube":
        ell = d.bit_length() - 1
        if 1 << ell != d:
            raise ValueError(f"hypercube graph needs d to be a power of 2, got {d}")
        return hypercube(ell)
    if name.startswith("file:"):
        path = name[len("file:") :]
        with open(path, encoding="utf-8") as fh:
            g = parse_graph_file(fh.read())
        if g.d != d:
            raise ValueError(f"graph file has {g.d} colors, expected {d}")
        profile(g)  # reject graphs the volume and code formulas cannot handle
        return g
    raise ValueError(f"unknown graph {name!r} (complete|cycle|hypercube|file:<path>)")


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is not None:
        return seed
    fresh = random.SystemRandom().getrandbits(63)
    print(f"seed: {fresh}", file=sys.stderr)
    return fresh


def _write_output(chunks: Iterable[str], path: Optional[str]) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _format_witness(result: SolveResult) -> str:
    if result.status == "sat":
        colors = " ".join(str(c) for c in result.assignment)
        return f"s SATISFIABLE\nv {colors}\n"
    if result.status == "unsat":
        return "s UNSATISFIABLE\n"
    return "s UNKNOWN\n"


def cmd_gen(args: argparse.Namespace) -> int:
    from . import formula as fmod

    fmod.check_random_shape(args.n, args.d, args.k, args.m)  # before the planted draw
    seed = _resolve_seed(args.seed)
    rng = random.Random(seed)
    planted = None
    if args.planted:
        planted = tuple(rng.randint(1, args.d) for _ in range(args.n))
        print("planted:", " ".join(str(c) for c in planted), file=sys.stderr)
    f = fmod.generate_random(args.n, args.d, args.k, args.m, rng.getrandbits(64), planted)
    _write_output([fmod.serialize_instance(f)], args.output)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from . import formula as fmod, search

    with open(args.instance, encoding="utf-8") as fh:
        f = fmod.parse_instance(fh.read())
    g = _graph_from_flag(args.graph, f.d)
    if args.verify_oracle:
        fmod.check_brute_force(f)  # before the solve and the seed

    if args.method == "det":
        result = search.det_solve(f, g, block_cap=args.block_cap, jobs=args.jobs)
    elif args.method == "schoening":
        search.check_walk(f, g, args.reps, args.steps_mult, args.jobs)  # before the seed is printed
        seed = _resolve_seed(args.seed)
        result = search.schoening_solve(
            f, g, args.reps, steps_multiplier=args.steps_mult, rng=seed, jobs=args.jobs
        )
    else:
        witness = fmod.brute_force_solve(f)
        status = "sat" if witness is not None else "unsat"
        result = search.SolveResult(status, witness, search.SearchStats())

    if args.verbose:
        st = result.stats
        print(
            f"stats: nodes={st.nodes_visited} balls={st.balls_searched} "
            f"reps={st.repetitions} steps={st.steps}",
            file=sys.stderr,
        )
    if args.verify_oracle:
        oracle = result.assignment if args.method == "brute" else fmod.brute_force_solve(f)
        if result.status == "sat" and oracle is None:
            raise RuntimeError("solver returned SAT but exhaustive search finds no witness")
        if result.status == "unsat" and oracle is not None:
            raise RuntimeError("solver returned UNSAT but exhaustive search finds a witness")
    _write_output([_format_witness(result)], args.output)
    if result.status == "sat":
        return EXIT_SAT
    if result.status == "unsat":
        return EXIT_UNSAT
    return 0


def cmd_code(args: argparse.Namespace) -> int:
    from . import covercode

    g = _graph_from_flag(args.graph, args.d)
    code = covercode.build_code(g, args.n, args.k, block_cap=args.block_cap)
    _write_output(covercode.format_code_file(code), args.output)
    return 0


def cmd_volume(args: argparse.Namespace) -> int:
    from .colorgraph import profile
    from .volume import shell_counts

    p = profile(_graph_from_flag(args.graph, args.d))
    # the full table's big-integer DP grows about as shells^2.5: 1501 shells
    # (complete(3), n = 1500) take about 1 s, 4001 (n = 4000) about 12 s
    if args.r is None and p.s * args.n + 1 > 1501:
        raise ValueError(f"a full table of {p.s * args.n + 1} shells is over 1501; "
                         "ask for shells 0..r with --r")
    counts = shell_counts(p, args.n, args.r)
    print("shells", *counts)
    if args.r is not None:
        print("volume", sum(counts))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from .analysis import base_for_graph, base_schoening
    from .colorgraph import complete, directed_cycle, profile

    p = profile(_graph_from_flag(args.graph, args.d)) if args.graph else None
    rows = {
        "schoening": base_schoening(args.d, args.k),
        "det-complete": base_for_graph(profile(complete(args.d)), args.k),
        "det-cycle": base_for_graph(profile(directed_cycle(args.d)), args.k),
    }
    if p is not None:
        rows["det-graph"] = base_for_graph(p, args.k)
    print(f"d {args.d} k {args.k}")
    for name, base in rows.items():
        print(f"{name} {float(base):.6f} ({base})")
    print("recommended", "cycle" if rows["det-cycle"] < rows["det-complete"] else "complete")
    return 0


def cmd_markov(args: argparse.Namespace) -> int:
    from . import analysis

    analysis.check_simulation(args.d, args.k, args.j, args.max_steps, args.trials)  # before the seed is printed
    sol = analysis.solve_lambda(args.d, args.k)
    seed = _resolve_seed(args.seed)
    freq, stderr = analysis.markov_simulate(
        args.d, args.k, args.j, args.max_steps, args.trials, seed
    )
    within = analysis.reach_within(args.d, args.k, args.j, args.max_steps)
    print(f"lambda {sol.value:.12f} residual {sol.residual:.3e}")
    print(f"P[{args.j}] {sol.value ** args.j:.12f}")
    print(f"P[{args.j}] within {args.max_steps} steps {within:.12f}")
    print(f"simulated {freq:.6f} stderr {stderr:.6f} trials {args.trials} max-steps {args.max_steps}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dkcsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        p.add_argument("--log-level", choices=["debug", "info", "warning", "error"], default=None,
                       help="print log records at this level and above to stderr")
        if "graph" in names:
            p.add_argument("--graph", default="complete",
                           help="complete|cycle|hypercube|file:<path> (default complete)")
        if "d" in names:
            p.add_argument("--d", type=int, required=True, help="number of colors")
        if "k" in names:
            p.add_argument("--k", type=int, required=True, help="max constraint width")
        if "n" in names:
            p.add_argument("--n", type=int, required=True, help="number of variables")
        if "seed" in names:
            p.add_argument("--seed", type=int, default=None, help="RNG seed (fresh if omitted)")
        if "block-cap" in names:
            p.add_argument("--block-cap", type=int, default=None,
                           help="max ground-set size per covering-code block (default: none)")
        if "jobs" in names:
            p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
        if "output" in names:
            p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("gen", help="generate a random instance")
    add_common(p, "n", "d", "k", "seed", "output")
    p.add_argument("--m", type=int, required=True, help="number of constraints")
    p.add_argument("--planted", action="store_true",
                   help="resample constraints falsified by a hidden random assignment")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--method", choices=["det", "schoening", "brute"], default="det")
    add_common(p, "graph", "seed", "block-cap", "jobs", "output")
    p.add_argument("--reps", type=int, default=100, help="random-walk restarts")
    p.add_argument("--steps-mult", type=int, default=None,
                   help="walk length multiplier c, steps = c*n (default 3(d-1))")
    p.add_argument("--verify-oracle", action="store_true",
                   help="cross-check the answer against exhaustive search")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("code", help="build and print a covering code")
    add_common(p, "graph", "d", "n", "k", "block-cap", "output")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("volume", help="print shell counts and ball volume")
    add_common(p, "graph", "d", "n")
    p.add_argument("--r", type=int, default=None, help="ball radius")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("predict", help="print per-variable running-time bases")
    add_common(p, "d", "k")
    p.add_argument("--graph", default=None,
                   help="also report the base for this graph")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("markov", help="walk analysis: lambda, reach probability, simulation")
    add_common(p, "d", "k", "seed")
    p.add_argument("--j", type=int, default=2, help="start distance (default 2)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.set_defaults(func=cmd_markov)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.log_level is not None:
        import logging

        logging.basicConfig(level=args.log_level.upper(), force=True,
                            format="%(levelname)s %(name)s: %(message)s")
    # no BLAS call is made, so spare every numpy import OpenBLAS's idle thread pool
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
