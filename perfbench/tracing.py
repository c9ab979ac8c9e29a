"""The traced, in-process run: each layer's public functions are called from
here, inside spans, and the spans are reduced to the per-layer metrics.

Spans are recorded only in this file, around calls into the program. Calls
that `build_code` makes internally are reached by swapping the module
attributes it looks up (`covercode.select_radius`, `covercode.greedy_cover`,
`covercode.product_code`, `volume.shell_counts`) for traced wrappers for the
length of the run; the program's code is not changed. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import pickle
import resource
import time
from typing import Optional

from measure import ball_bound, color_graph, markov_error, search_error
from workloads import D, K, Op

LAYERS = ("formula", "volume", "covercode", "search", "analysis")


class Tracer:
    """Spans as [name, parent index or None, start, end], in start order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def inclusive(self, name: str) -> float:
        return sum((end - start for n, _, start, end in self.spans if n == name), 0.0)

    def layer_self(self) -> dict[str, float]:
        """Self time per layer (span-name prefix); root spans count as benchmark time."""
        out: dict[str, float] = {}
        for (name, _, _, _), own in zip(self.spans, self.self_times()):
            layer = name.split(".")[0] if "." in name else "bench"
            out[layer] = out.get(layer, 0.0) + own
        return out

    def total(self) -> float:
        return sum((end - start for _, parent, start, end in self.spans if parent is None), 0.0)

    def dump(self) -> list[dict]:
        return [{"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans]


@contextlib.contextmanager
def instrumented(tracer: Tracer, dk):
    """Swap the functions build_code calls by module lookup for traced wrappers."""
    targets = [
        (dk.volume, "shell_counts", "volume.shell_counts"),
        (dk.covercode, "select_radius", "volume.select_radius"),
        (dk.covercode, "greedy_cover", "covercode.greedy"),
        (dk.covercode, "product_code", "covercode.product"),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, name in targets:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _cpu_with_children() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds: a traced no-op against a bare one."""
    def noop() -> None:
        return None

    traced = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - bare, 0.0) / calls


def _clear_code_caches(dk) -> None:
    """Forget built codes and shell tables, as a fresh `dkcsp` process would."""
    for fn in (dk.covercode.build_code, dk.volume.shell_counts):
        while not hasattr(fn, "cache_clear"):
            fn = fn.__wrapped__  # a traced wrapper around the cached function
        fn.cache_clear()


def run_op(op: Op, tr: Tracer, dk) -> dict:
    """Do in-process what `dkcsp` does for `op`, with a fresh code cache.

    Returns the result and counts the per-layer metrics are made from.
    """
    _clear_code_caches(dk)
    size = op.size
    rec: dict = {"key": op.key, "kind": op.kind}
    with tr.span("op"):
        if op.kind == "markov":
            with tr.span("analysis.lambda"):
                dk.analysis.solve_lambda(D, K)
                rec["reach"] = dk.analysis.reach_probability(D, K, 2)
            with tr.span("analysis.markov"):
                rec["freq"], rec["stderr"] = dk.analysis.markov_simulate(
                    D, K, 2, size.max_steps, size.trials, op.seed)
            rec["hits"] = round(rec["freq"] * size.trials)
            return rec
        with open(op.path, encoding="utf-8") as fh:
            text = fh.read()
        with tr.span("formula.parse"):
            f = dk.formula.parse_instance(text)
        g = color_graph(dk, op.graph)
        rec["formula"] = f
        if op.kind == "walk":
            with tr.span("search.walk"):
                rec["result"] = dk.search.schoening_solve(f, g, size.reps, rng=op.seed)
            return rec
        with tr.span("covercode.build"):
            code = dk.covercode.build_code(g, f.n, f.k, size.block_cap)
        cpu0 = _cpu_with_children()
        with tr.span("search.ball" if size.jobs == 1 else "search.pool"):
            rec["result"] = dk.search.det_solve(f, g, block_cap=size.block_cap, jobs=size.jobs)
        rec["search_cpu"] = _cpu_with_children() - cpu0
        rec["pool"] = size.jobs > 1
        rec["code"] = code
        rec["ball_bound"] = ball_bound(dk, g, f.k, code.radius)
    return rec


def check_record(op: Op, rec: dict, dk) -> Optional[str]:
    """The checks made on the CLI's answers, plus the node bound on the largest ball."""
    if op.kind == "markov":
        return markov_error(dk, rec["freq"], rec["stderr"])
    res = rec["result"]
    if res.status != op.expect:
        return f"status {res.status}, expected {op.expect}"
    if res.status == "sat" and not dk.formula.evaluate(rec["formula"], res.assignment)[0]:
        return "witness does not satisfy the instance"
    if op.kind == "walk":
        return None
    st = res.stats
    if st.max_ball_nodes > rec["ball_bound"]:
        return f"a ball of {st.max_ball_nodes} nodes exceeds the bound {rec['ball_bound']}"
    return search_error(res.status == "unsat", st.balls_searched, st.nodes_visited,
                        len(rec["code"].codewords), rec["ball_bound"])


def record_counts(rec: dict) -> dict:
    """The exact counts of an in-process operation, named as on the CLI stats line."""
    if rec["kind"] == "markov":
        return {"hits": rec["hits"]}
    st = rec["result"].stats
    return {"nodes": st.nodes_visited, "balls": st.balls_searched, "reps": st.repetitions, "steps": st.steps}


def layer_metrics(tr: Tracer, recs: list[dict]) -> dict[str, tuple[float, str]]:
    """Reduce one traced round to the per-layer metrics (sums over the round)."""
    det = [r for r in recs if r["kind"] == "det"]
    walk = [r for r in recs if r["kind"] == "walk"]
    markov = [r for r in recs if r["kind"] == "markov"]
    pool = [r for r in det if r["pool"]]
    nodes = sum(r["result"].stats.nodes_visited for r in det)
    predicted = sum(len(r["code"].codewords) * r["ball_bound"] for r in det)
    ball_s = tr.inclusive("search.ball")
    walk_s = tr.inclusive("search.walk")
    steps = sum(r["result"].stats.steps for r in walk)
    serial_nodes = nodes - sum(r["result"].stats.nodes_visited for r in pool)
    return {
        "formula.parse_s": (tr.inclusive("formula.parse"), "s"),
        "volume.shell_counts_s": (tr.inclusive("volume.shell_counts"), "s"),
        "volume.select_radius_s": (tr.inclusive("volume.select_radius"), "s"),
        "covercode.greedy_s": (tr.inclusive("covercode.greedy"), "s"),
        "covercode.product_s": (tr.inclusive("covercode.product"), "s"),
        "covercode.build_s": (tr.inclusive("covercode.build"), "s"),
        "covercode.codewords": (sum(len(r["code"].codewords) for r in det), "count"),
        "covercode.radius": (max((r["code"].radius for r in det), default=0), "count"),
        "covercode.blocks": (max((len(r["code"].blocks) for r in det), default=0), "count"),
        "search.ball_s": (ball_s, "s"),
        "search.nodes": (nodes, "count"),
        "search.balls": (sum(r["result"].stats.balls_searched for r in det), "count"),
        "search.max_ball_nodes": (max((r["result"].stats.max_ball_nodes for r in det), default=0), "count"),
        "search.knodes_per_s": (serial_nodes / ball_s / 1000 if ball_s else 0.0, "knodes/s"),
        "search.predicted_nodes": (predicted, "count"),
        "search.nodes_per_predicted": (nodes / predicted if predicted else 0.0, "ratio"),
        "search.pool_s": (tr.inclusive("search.pool"), "s"),
        "search.pool_cpu_s": (sum(r["search_cpu"] for r in pool), "s"),
        "search.pool_payload_bytes": (
            sum(len(pickle.dumps(list(r["code"].codewords), pickle.HIGHEST_PROTOCOL)) for r in pool), "bytes"),
        "search.walk_s": (walk_s, "s"),
        "search.walk_steps": (steps, "count"),
        "search.walk_reps": (sum(r["result"].stats.repetitions for r in walk), "count"),
        "search.walk_ksteps_per_s": (steps / walk_s / 1000 if walk_s else 0.0, "ksteps/s"),
        "analysis.lambda_s": (tr.inclusive("analysis.lambda"), "s"),
        "analysis.markov_s": (tr.inclusive("analysis.markov"), "s"),
        "analysis.markov_z": (
            max((abs(r["freq"] - r["reach"]) / r["stderr"] for r in markov if r["stderr"]), default=0.0),
            "stderr"),
    }
