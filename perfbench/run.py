"""dkcsp benchmark: run one workload as real `dkcsp` invocations and print its
metrics, or, with --trace 1, run it in-process under spans and print the
per-layer metrics.

    python3 perfbench/run.py --workload det-unsat --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it builds nothing (the program is
pure Python, imported from src/ via PYTHONPATH). Scratch files go to
.bench_work/ at the checkout root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import sys
import types

import measure
import tracing
from workloads import SIZES, prepare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")


def load_program():
    """Import dkcsp from the checkout's src/ (it is not installed)."""
    sys.path.insert(0, SRC)
    import dkcsp.analysis
    import dkcsp.colorgraph
    import dkcsp.covercode
    import dkcsp.formula
    import dkcsp.search
    import dkcsp.volume

    return types.SimpleNamespace(**{m: getattr(dkcsp, m) for m in
                                    ("analysis", "colorgraph", "covercode", "formula", "search", "volume")})


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "dkcsp", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(), "source_sha256": source_digest()}


def stored_count_errors(workload: str, seed: int, size, counts: dict[str, dict]) -> dict[str, str]:
    """Exact counts must match earlier runs of the same program source, sizes and seed."""
    size_digest = hashlib.sha256(repr(size).encode()).hexdigest()[:8]
    path = os.path.join(WORKDIR, f"counts-{workload}-{seed}-{size_digest}-{source_digest()}.json")
    old = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    errors = {}
    for key, now in counts.items():
        before = old.setdefault(key, {})
        if any(before.get(name, value) != value for name, value in now.items()):
            errors[key] = f"counts {now} differ from an earlier run's {before}"
        else:
            before.update(now)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(old, fh, indent=1, sort_keys=True)
    return errors


def op_counts(samples: list[measure.Sample]) -> dict[str, dict]:
    return {s.op.key: s.counts for s in samples if s.error is None}


def print_ops(samples: list[measure.Sample]) -> None:
    for key, group in measure.per_op(samples).items():
        walls = " ".join(f"{s.wall:.3f}" for s in group)
        counts = " ".join(f"{k}={v}" for k, v in group[0].counts.items())
        print(f"op {key}: wall_s [{walls}] cpu_s {group[0].cpu:.3f} rss_mb {group[0].rss_mb:.1f} | {counts}")


def untraced_run(name, seed, seconds, ops, env, dk, formulas, report) -> tuple[dict, int, list[str]]:
    samples, startups = measure.closed_loop(ops, seconds, env, WORKDIR, dk, formulas)
    startup = measure.startup_seconds(env, WORKDIR, startups)
    measure.add_codewords(samples, dk)
    measure.mark_failed(samples, measure.repeat_errors(samples))
    measure.mark_failed(samples, stored_count_errors(name, seed, ops[0].size, op_counts(samples)))
    errors = [f"{s.op.key}: {s.error}" for s in samples if s.error]
    print_ops(samples)
    report["ops"] = [{"key": s.op.key, "wall": s.wall, "cpu": s.cpu, "rss_mb": s.rss_mb,
                      "counts": s.counts, "error": s.error} for s in samples]
    return measure.end_to_end(samples, startup), len(samples), errors


def load_check(name: str, shares: dict[str, float]) -> str:
    """Does the traced run show the load this workload exists to put on its layer?"""
    if name == "det-unsat":
        ok = shares.get("search", 0.0) >= 0.90
        want = "search >= 90%"
    elif name == "det-sat":
        ok = max(tracing.LAYERS, key=lambda layer: shares.get(layer, 0.0)) == "covercode"
        want = "covercode largest"
    else:
        ok = shares.get("covercode", 0.0) == 0.0
        want = "no covercode time"
    return f"load check ({want}): {'ok' if ok else 'MISS'}"


def traced_run(name, seed, ops, env, dk, formulas, report) -> tuple[dict, int, list[str]]:
    startup = measure.startup_seconds(env, WORKDIR)
    samples = [measure.run_op(op, env, WORKDIR, dk, formulas) for op in ops]
    measure.mark_failed(samples, stored_count_errors(name, seed, ops[0].size, op_counts(samples)))
    errors = [f"{s.op.key}: {s.error}" for s in samples if s.error]
    print_ops(samples)
    traced, recs = tracing.Tracer(), []
    if not errors:  # in-process calls have no timeout, so only run what the CLI finished
        with tracing.instrumented(traced, dk):
            recs = [tracing.run_op(op, traced, dk) for op in ops]
        cli_counts = op_counts(samples)
        for op, rec in zip(ops, recs):
            error = tracing.check_record(op, rec, dk)
            if error is None and tracing.record_counts(rec) != cli_counts[op.key]:
                error = f"in-process counts {tracing.record_counts(rec)} differ from the CLI's {cli_counts[op.key]}"
            if error:
                errors.append(f"{op.key} (in-process): {error}")
    metrics = tracing.layer_metrics(traced, recs)
    total = traced.total()
    metrics["cli.startup_s"] = (startup, "s")
    metrics["cli.overhead_s"] = (sum(s.wall for s in samples) - total if recs else 0.0, "s")
    metrics["analysis.markov_peak_rss_mb"] = (
        max((s.rss_mb for s in samples if s.op.kind == "markov"), default=0.0), "MB")
    # Comparing a traced with an untraced round would measure host noise (about
    # 10% between two rounds here) rather than tracing, so the cost is taken as
    # the number of spans times the measured cost of one traced call.
    cost = len(traced.spans) * tracing.span_cost()
    metrics["trace.overhead_frac"] = (cost / (total - cost) if recs else 0.0, "ratio")
    layers = traced.layer_self()
    shares = {layer: t / total for layer, t in layers.items()} if total else {}
    print("self-time share: " + " ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    if recs:
        print(load_check(name, shares))
    report["spans"] = traced.dump()
    report["layer_self_s"] = layers
    return metrics, len(samples) + len(recs), errors


def main(argv=None, sizes: dict = SIZES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20,
                        help="closed-loop measuring time; the traced run does one round instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dkcsp", "cli.py")):
        print(f"error: no dkcsp sources under {SRC}; run from a dkcsp checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    dk = load_program()
    os.makedirs(WORKDIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "loadavg_before": os.getloadavg()}
    print("env: " + json.dumps(report["env"]))
    ops = prepare(args.workload, args.seed, WORKDIR, dk.formula, sizes)
    formulas = {}
    for op in ops:
        if op.path and op.path not in formulas:
            with open(op.path, encoding="utf-8") as fh:
                formulas[op.path] = dk.formula.parse_instance(fh.read())
    if args.trace:
        metrics, attempted, errors = traced_run(args.workload, args.seed, ops, env, dk, formulas, report)
    else:
        metrics, attempted, errors = untraced_run(args.workload, args.seed, args.seconds, ops, env, dk,
                                                  formulas, report)
    report["loadavg_after"] = os.getloadavg()
    failed = len(errors)
    for error in errors:
        print("FAIL " + error)
    print(f"loadavg before {report['loadavg_before']} after {report['loadavg_after']}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.3f}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report["result"] = result
    report["errors"] = errors
    with open(os.path.join(WORKDIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
