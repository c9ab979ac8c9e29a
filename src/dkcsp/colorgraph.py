"""Graphs on the color set {1..d} and the distances they induce on assignments.

A (possibly directed) graph on the colors turns each coordinate move of a
local search into a step along an edge. Summing per-coordinate shortest-path
distances gives the product distance on the assignment space [d]^n; with the
complete graph this is the Hamming distance, with the directed cycle a skewed
variant that is cheaper to branch over.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from . import _decimals, _Record

__all__ = [
    "ColorGraph",
    "DistanceProfile",
    "complete",
    "directed_cycle",
    "from_edges",
    "hypercube",
    "parse_graph_file",
    "profile",
]


class DistanceProfile(_Record):
    """Counts (d_0, .., d_s) of colors at each distance from any fixed color.

    Only defined for graphs that look the same from every vertex; d_0 = 1,
    delta = d_1 is the out-degree, s the largest distance with a nonzero
    count. Unreachable colors are not counted, so sum(counts) = d exactly
    when the graph is strongly connected.
    """

    __slots__ = ("d", "counts")

    def __init__(self, d: int, counts: tuple[int, ...]):
        if not counts or counts[0] != 1:
            raise ValueError("distance profile must start with d_0 = 1")
        if len(counts) > 1 and counts[-1] == 0:
            raise ValueError("distance profile must not have trailing zeros")
        if sum(counts) > d:
            raise ValueError("distance profile counts exceed color count")
        delta = counts[1] if len(counts) > 1 else 0
        for i, c in enumerate(counts):
            if i >= 1 and c > delta**i:
                raise ValueError(f"profile violates d_{i} <= delta^{i}: {counts}")
        self.d, self.counts = d, counts

    @property
    def s(self) -> int:
        """Diameter: largest distance with a nonzero count."""
        return len(self.counts) - 1

    @property
    def delta(self) -> int:
        """Out-degree of every vertex."""
        return self.counts[1] if len(self.counts) > 1 else 0

    @property
    def spans_all_colors(self) -> bool:
        return sum(self.counts) == self.d


class ColorGraph(_Record):
    """Adjacency on colors 1..d, stored as sorted out-neighbor tuples."""

    __slots__ = ("d", "out", "name", "_distances")

    def __init__(self, d: int, out: tuple[tuple[int, ...], ...], name: str = "custom"):
        if d < 1:
            raise ValueError("graph needs at least one color")
        if len(out) != d:
            raise ValueError(f"expected {d} out-neighbor lists, got {len(out)}")
        for c, nbrs in enumerate(out, start=1):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"out-neighbors of color {c} must be sorted and distinct")
            for v in nbrs:
                if not 1 <= v <= d:
                    raise ValueError(f"neighbor {v} of color {c} out of range 1..{d}")
                if v == c:
                    raise ValueError(f"self-loop at color {c}")
        self.d, self.out, self.name, self._distances = d, out, name, None

    @property
    def distances(self) -> tuple[tuple[Optional[int], ...], ...]:
        """BFS shortest-path lengths between all color pairs; None if unreachable.

        Computed on first use and kept."""
        if self._distances is None:
            rows = []
            for src in range(1, self.d + 1):
                dist: list[Optional[int]] = [None] * self.d
                dist[src - 1] = 0
                frontier = [src]
                step = 0
                while frontier:
                    step += 1
                    nxt = []
                    for u in frontier:
                        for v in self.out[u - 1]:
                            if dist[v - 1] is None:
                                dist[v - 1] = step
                                nxt.append(v)
                    frontier = nxt
                rows.append(tuple(dist))
            self._distances = tuple(rows)
        return self._distances


@lru_cache(maxsize=None)
def complete(d: int) -> ColorGraph:
    """K_d: every ordered pair of distinct colors is an edge."""
    if d < 2:
        raise ValueError("complete graph needs d >= 2")
    out = tuple(tuple(v for v in range(1, d + 1) if v != c) for c in range(1, d + 1))
    return ColorGraph(d, out, "complete")


@lru_cache(maxsize=None)
def directed_cycle(d: int) -> ColorGraph:
    """The directed cycle 1 -> 2 -> .. -> d -> 1; out-degree 1."""
    if d < 2:
        raise ValueError("directed cycle needs d >= 2")
    out = tuple((c % d + 1,) for c in range(1, d + 1))
    return ColorGraph(d, out, "cycle")


@lru_cache(maxsize=None)
def hypercube(ell: int) -> ColorGraph:
    """d = 2^ell colors, adjacent iff their (color - 1) bit patterns differ in one bit."""
    if ell < 1:
        raise ValueError("hypercube needs ell >= 1")
    d = 1 << ell
    out = tuple(
        tuple(sorted(((c - 1) ^ (1 << b)) + 1 for b in range(ell))) for c in range(1, d + 1)
    )
    return ColorGraph(d, out, "hypercube")


def from_edges(d: int, edges: Iterable[tuple[int, int]]) -> ColorGraph:
    """Build a graph from directed (u, v) edges; undirected graphs list both directions."""
    nbrs: list[set[int]] = [set() for _ in range(d)]
    for u, v in edges:
        if not (1 <= u <= d and 1 <= v <= d):
            raise ValueError(f"edge ({u},{v}) out of range 1..{d}")
        nbrs[u - 1].add(v)
    return ColorGraph(d, tuple(tuple(sorted(s)) for s in nbrs))


def parse_graph_file(text: str) -> ColorGraph:
    """Parse the custom graph format: header "g <d>", then one "u v" line per
    edge, numbers in ASCII decimal digits."""
    d: Optional[int] = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        tokens = line.split()
        header = d is None
        if header and (len(tokens) != 2 or tokens[0] != "g"):
            raise ValueError(f"line {line_no}: expected header 'g <d>', got {raw!r}")
        if len(tokens) != 2:
            raise ValueError(f"line {line_no}: expected edge 'u v', got {raw!r}")
        try:
            values = _decimals(tokens[1] if header else line)
        except ValueError:
            what = "color count in header" if header else "token in edge line"
            raise ValueError(f"line {line_no}: non-integer {what} {raw!r}") from None
        if header:
            (d,) = values
        else:
            edges.append(tuple(values))
    if d is None:
        raise ValueError("missing 'g <d>' header")
    return from_edges(d, edges)


def profile(g: ColorGraph) -> DistanceProfile:
    """Distance profile of g, or an error if vertices disagree.

    Every vertex must see the same number of colors at each distance (and
    hence the same out-degree); the volume and code-size formulas are invalid
    otherwise.
    """
    rows = g.distances
    reference: Optional[tuple[int, ...]] = None
    for src, row in enumerate(rows, start=1):
        finite = [x for x in row if x is not None]
        counts = [0] * (max(finite) + 1)
        for x in finite:
            counts[x] += 1
        seq = tuple(counts)
        if reference is None:
            reference = seq
        elif seq != reference:
            raise ValueError(
                f"not distance-regular: color 1 sees profile {reference}, color {src} sees {seq}"
            )
    return DistanceProfile(g.d, reference)
