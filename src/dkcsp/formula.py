"""(d,k)-CSP formulas: types, parsing, generation, evaluation, brute-force oracle.

Variables x_1..x_n take colors from {1..d}. A literal (x != c) is falsified
exactly when x is colored c; a constraint is a disjunction (OR) of at most k
literals; a formula is a conjunction (AND) of constraints. Assignments are
plain tuples of colors, length n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "BRUTE_FORCE_CAP",
    "Constraint",
    "Formula",
    "Literal",
    "ParseError",
    "brute_force_solve",
    "constraint",
    "evaluate",
    "generate_random",
    "normalize",
    "parse_instance",
    "serialize_instance",
]

BRUTE_FORCE_CAP = 10_000_000


class ParseError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Literal:
    """The literal (x_var != color)."""

    var: int
    color: int


@dataclass(frozen=True)
class Constraint:
    literals: tuple[Literal, ...]

    def __len__(self) -> int:
        return len(self.literals)


def constraint(*pairs: tuple[int, int]) -> Constraint:
    """Build a constraint from (var, color) pairs, in order."""
    return Constraint(tuple(Literal(v, c) for v, c in pairs))


@dataclass(frozen=True)
class Formula:
    """A (d,k)-CSP formula. k is the declared maximum constraint width."""

    n: int
    d: int
    k: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"variable count must be nonnegative, got {self.n}")
        if self.d < 2:
            raise ValueError(f"color count must be at least 2, got {self.d}")
        if self.k < 1:
            raise ValueError(f"max constraint width must be at least 1, got {self.k}")
        for i, con in enumerate(self.constraints):
            if len(con.literals) > self.k:
                raise ValueError(
                    f"constraint {i} has {len(con.literals)} literals, width limit is {self.k}"
                )
            for lit in con.literals:
                if not 1 <= lit.var <= self.n:
                    raise ValueError(f"constraint {i}: variable {lit.var} out of range 1..{self.n}")
                if not 1 <= lit.color <= self.d:
                    raise ValueError(f"constraint {i}: color {lit.color} out of range 1..{self.d}")

    @property
    def m(self) -> int:
        return len(self.constraints)


def _check_assignment(f: Formula, a: Sequence[int]) -> None:
    if len(a) != f.n:
        raise ValueError(f"assignment has length {len(a)}, expected {f.n}")
    for v in a:
        if not 1 <= v <= f.d:
            raise ValueError(f"assignment color {v} out of range 1..{f.d}")


def parse_instance(text: str, k: Optional[int] = None) -> Formula:
    """Parse the text instance format.

    Lines starting with "c" are comments. The header is
    "p csp <n> <d> <m>", followed by exactly m constraint lines, each a
    sequence of (var, color) integer pairs terminated by a single 0.

    The file does not carry k; unless an explicit `k` is supplied, the
    declared width is inferred as the widest constraint present (at least 1).
    """
    header: Optional[tuple[int, int, int]] = None
    constraints: list[Constraint] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        tokens = line.split()
        if header is None:
            if tokens[:2] != ["p", "csp"] or len(tokens) != 5:
                raise ParseError(line_no, f"expected header 'p csp <n> <d> <m>', got {raw!r}")
            try:
                n, d, m = (int(t) for t in tokens[2:])
            except ValueError:
                raise ParseError(line_no, f"non-integer field in header {raw!r}") from None
            if n < 0 or d < 2 or m < 0:
                raise ParseError(line_no, f"invalid header values n={n} d={d} m={m}")
            header = (n, d, m)
            continue
        n, d, m = header
        if len(constraints) == m:
            raise ParseError(line_no, f"trailing garbage after {m} constraints: {raw!r}")
        try:
            nums = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(line_no, f"non-integer token in constraint line {raw!r}") from None
        if not nums or nums[-1] != 0:
            raise ParseError(line_no, "constraint line must end with 0")
        if 0 in nums[:-1]:
            raise ParseError(line_no, "unexpected 0 before end of constraint line")
        body = nums[:-1]
        if len(body) % 2 != 0:
            raise ParseError(line_no, "constraint line has an unpaired trailing integer")
        lits = []
        for var, color in zip(body[::2], body[1::2]):
            if not 1 <= var <= n:
                raise ParseError(line_no, f"variable {var} out of range 1..{n}")
            if not 1 <= color <= d:
                raise ParseError(line_no, f"color {color} out of range for d={d}")
            lits.append(Literal(var, color))
        if k is not None and len(lits) > k:
            raise ParseError(line_no, f"constraint has {len(lits)} literals, width limit is {k}")
        constraints.append(Constraint(tuple(lits)))
    if header is None:
        raise ParseError(max(last_line, 1), "missing 'p csp' header")
    n, d, m = header
    if len(constraints) < m:
        raise ParseError(last_line, f"expected {m} constraints, found {len(constraints)}")
    width = max((len(c.literals) for c in constraints), default=0)
    return Formula(n, d, k if k is not None else max(1, width), tuple(constraints))


def serialize_instance(f: Formula) -> str:
    """Inverse of parse_instance (up to the inferred width of empty formulas)."""
    lines = [f"p csp {f.n} {f.d} {len(f.constraints)}"]
    for con in f.constraints:
        parts = []
        for lit in con.literals:
            parts.append(str(lit.var))
            parts.append(str(lit.color))
        parts.append("0")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def evaluate(f: Formula, a: Sequence[int]) -> tuple[bool, Optional[int]]:
    """Return (satisfied, index of the first unsatisfied constraint or None).

    A constraint is unsatisfied iff every literal in it is falsified; an
    empty constraint is always unsatisfied.
    """
    _check_assignment(f, a)
    for i, con in enumerate(f.constraints):
        if all(a[lit.var - 1] == lit.color for lit in con.literals):
            return False, i
    return True, None


def normalize(f: Formula) -> Formula:
    """Drop duplicate literals and tautological constraints.

    A constraint holding two literals on the same variable with different
    colors is satisfied by every assignment and is removed. Constraint order
    is otherwise preserved; the result is satisfaction-equivalent.
    """
    kept: list[Constraint] = []
    for con in f.constraints:
        seen: set[tuple[int, int]] = set()
        color_of: dict[int, int] = {}
        lits: list[Literal] = []
        tautology = False
        for lit in con.literals:
            if color_of.get(lit.var, lit.color) != lit.color:
                tautology = True
                break
            if (lit.var, lit.color) in seen:
                continue
            seen.add((lit.var, lit.color))
            color_of[lit.var] = lit.color
            lits.append(lit)
        if not tautology:
            kept.append(Constraint(tuple(lits)))
    return Formula(f.n, f.d, f.k, tuple(kept))


def generate_random(
    n: int,
    d: int,
    k: int,
    m: int,
    seed: int,
    planted: Optional[Sequence[int]] = None,
) -> Formula:
    """Generate m random constraints of exactly k literals each.

    Each constraint picks k distinct variables uniformly and independent
    uniform colors. With `planted`, constraints fully falsified by it are
    resampled, so the result is guaranteed satisfiable by `planted`. A fixed
    seed gives bit-identical output.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if d < 2:
        raise ValueError("d must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    if m > 0 and k > n:
        raise ValueError(f"cannot pick {k} distinct variables out of {n}")
    if planted is not None:
        if len(planted) != n or any(not 1 <= v <= d for v in planted):
            raise ValueError("planted assignment out of range")
    rng = random.Random(seed)
    cons = []
    for _ in range(m):
        while True:
            variables = rng.sample(range(1, n + 1), k)
            lits = tuple(Literal(v, rng.randint(1, d)) for v in variables)
            if planted is None or any(planted[lit.var - 1] != lit.color for lit in lits):
                break
        cons.append(Constraint(lits))
    return Formula(n, d, k, tuple(cons))


def _assignment_grid(n: int, d: int) -> np.ndarray:
    """All d^n assignments as rows in lexicographic order (variable 1 varies slowest)."""
    total = d**n
    idx = np.arange(total, dtype=np.int64)
    cols = [(idx // d ** (n - 1 - i)) % d + 1 for i in range(n)]
    return np.stack(cols, axis=1).astype(np.int16)


def brute_force_solve(f: Formula, cap: int = BRUTE_FORCE_CAP) -> Optional[tuple[int, ...]]:
    """Exhaustive search for the lexicographically smallest satisfying assignment."""
    total = f.d**f.n
    if total > cap:
        raise ValueError(f"search space {f.d}^{f.n} exceeds cap {cap}")
    if f.n == 0:
        return () if evaluate(f, ())[0] else None
    grid = _assignment_grid(f.n, f.d)
    sat = np.ones(total, dtype=bool)
    for con in f.constraints:
        if not con.literals:
            return None
        falsified = np.ones(total, dtype=bool)
        for lit in con.literals:
            falsified &= grid[:, lit.var - 1] == lit.color
        sat &= ~falsified
        if not sat.any():
            return None
    return tuple(int(v) for v in grid[int(np.argmax(sat))])
