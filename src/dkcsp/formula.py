"""(d,k)-CSP formulas: types, parsing, generation, evaluation, brute-force oracle.

Variables x_1..x_n take colors from {1..d}. A literal (x != c) is falsified
exactly when x is colored c; a constraint is a disjunction (OR) of at most k
literals; a formula is a conjunction (AND) of constraints. Assignments are
plain tuples of colors, length n.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

from . import _decimals, _Record

__all__ = [
    "BRUTE_FORCE_CAP",
    "Constraint",
    "Formula",
    "Literal",
    "ParseError",
    "brute_force_solve",
    "check_brute_force",
    "check_random_shape",
    "evaluate",
    "generate_random",
    "parse_instance",
    "serialize_instance",
]

BRUTE_FORCE_CAP = 10_000_000
_BRUTE_FORCE_CHUNK = 1 << 16  # assignments brute_force_solve checks at once


class ParseError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Literal(NamedTuple):
    """The literal (x_var != color)."""

    var: int
    color: int


class Constraint(_Record):
    __slots__ = ("literals",)

    def __init__(self, literals: tuple[Literal, ...]):
        self.literals = literals


class Formula(_Record):
    """A (d,k)-CSP formula. k is the declared maximum constraint width."""

    __slots__ = ("n", "d", "k", "constraints")

    def __init__(self, n: int, d: int, k: int, constraints: tuple[Constraint, ...]):
        if n < 0:
            raise ValueError(f"variable count must be nonnegative, got {n}")
        if d < 2:
            raise ValueError(f"color count must be at least 2, got {d}")
        if k < 1:
            raise ValueError(f"max constraint width must be at least 1, got {k}")
        for i, con in enumerate(constraints):
            if len(con.literals) > k:
                raise ValueError(f"constraint {i} has {len(con.literals)} literals, width limit is {k}")
            for lit in con.literals:
                if not 1 <= lit.var <= n:
                    raise ValueError(f"constraint {i}: variable {lit.var} out of range 1..{n}")
                if not 1 <= lit.color <= d:
                    raise ValueError(f"constraint {i}: color {lit.color} out of range 1..{d}")
        self.n, self.d, self.k, self.constraints = n, d, k, constraints

    @property
    def m(self) -> int:
        return len(self.constraints)


def _check_assignment(f: Formula, a: Sequence[int]) -> None:
    if len(a) != f.n:
        raise ValueError(f"assignment has length {len(a)}, expected {f.n}")
    for v in a:
        if not 1 <= v <= f.d:
            raise ValueError(f"assignment color {v} out of range 1..{f.d}")


class _Literals(dict):
    """(var, color) -> its Literal, checked and made once per instance."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        super().__init__()
        self.n, self.d = n, d

    def __missing__(self, key: tuple[int, int]) -> Literal:
        var, color = key
        if var > self.n:
            raise ValueError(f"variable {var} out of range 1..{self.n}")
        if color > self.d:
            raise ValueError(f"color {color} out of range for d={self.d}")
        self[key] = lit = Literal(var, color)
        return lit


def parse_instance(text: str) -> Formula:
    """Parse the text instance format.

    Lines starting with "c" are comments. The header is
    "p csp <n> <d> <m>", followed by exactly m constraint lines, each a
    sequence of (var, color) integer pairs terminated by a single 0. Numbers
    are written in ASCII decimal digits.

    The file does not carry k; the declared width is inferred as the widest
    constraint present (at least 1).
    """
    literals: Optional[_Literals] = None  # made by the header
    constraints: list[Constraint] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        if literals is None:
            tokens = line.split()
            if tokens[:2] != ["p", "csp"] or len(tokens) != 5:
                raise ParseError(line_no, f"expected header 'p csp <n> <d> <m>', got {raw!r}")
            try:
                n, d, m = _decimals(" ".join(tokens[2:]))
            except ValueError:
                raise ParseError(line_no, f"non-integer field in header {raw!r}") from None
            if d < 2:
                raise ParseError(line_no, f"invalid header values n={n} d={d} m={m}")
            literals = _Literals(n, d)
            continue
        if len(constraints) == m:
            raise ParseError(line_no, f"trailing garbage after {m} constraints: {raw!r}")
        try:
            nums = _decimals(line)
        except ValueError:
            raise ParseError(line_no, f"non-integer token in constraint line {raw!r}") from None
        if nums[-1] != 0:
            raise ParseError(line_no, "constraint line must end with 0")
        if 0 in nums[:-1]:
            raise ParseError(line_no, "unexpected 0 before end of constraint line")
        if len(nums) % 2 == 0:
            raise ParseError(line_no, "constraint line has an unpaired trailing integer")
        pairs = iter(nums[:-1])
        try:
            constraints.append(Constraint(tuple(map(literals.__getitem__, zip(pairs, pairs)))))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    if literals is None:
        raise ParseError(max(last_line, 1), "missing 'p csp' header")
    if len(constraints) < m:
        raise ParseError(last_line, f"expected {m} constraints, found {len(constraints)}")
    # every check of Formula() has passed: the header's, and each literal's
    # range as _Literals made it, so its loop over all literals is skipped
    f = object.__new__(Formula)
    f.n, f.d, f.constraints = n, d, tuple(constraints)
    f.k = max(1, max(map(len, (c.literals for c in constraints)), default=0))
    return f


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


def check_random_shape(n: int, d: int, k: int, m: int) -> None:
    """Raise ValueError unless generate_random can draw m constraints of k
    literals over n variables with d colors."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if d < 2:
        raise ValueError("d must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    if m > 0 and k > n:
        raise ValueError(f"cannot pick {k} distinct variables out of {n}")


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
    check_random_shape(n, d, k, m)
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


def check_brute_force(f: Formula) -> None:
    """Raise ValueError unless brute_force_solve(f) can scan f's d^n assignments."""
    if f.d**f.n > BRUTE_FORCE_CAP:
        raise ValueError(f"search space {f.d}^{f.n} exceeds cap {BRUTE_FORCE_CAP}")


def brute_force_solve(f: Formula) -> Optional[tuple[int, ...]]:
    """Exhaustive search for the lexicographically smallest satisfying assignment,
    over the assignments in lexicographic order, _BRUTE_FORCE_CHUNK at a time."""
    import numpy as np
    check_brute_force(f)
    if not all(con.literals for con in f.constraints):
        return None
    total = f.d**f.n
    for start in range(0, total, _BRUTE_FORCE_CHUNK):
        idx = np.arange(start, min(total, start + _BRUTE_FORCE_CHUNK), dtype=np.int64)
        cols = [(idx // f.d ** (f.n - 1 - i) % f.d + 1).astype(np.int16) for i in range(f.n)]
        sat = np.ones(idx.size, dtype=bool)
        for con in f.constraints:
            falsified = np.ones(idx.size, dtype=bool)
            for lit in con.literals:
                falsified &= cols[lit.var - 1] == lit.color
            sat &= ~falsified
            if not sat.any():
                break
        if sat.any():
            first = int(np.argmax(sat))
            return tuple(int(col[first]) for col in cols)
    return None
