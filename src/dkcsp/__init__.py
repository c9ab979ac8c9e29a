"""Solvers and analysis for (d,k)-CSP with color-graph distances.

Modules:
  formula    instance types, parsing, generation, brute-force oracle
  colorgraph graphs on the color set and the induced product distance
  volume     exact shell counts, ball volumes and radius selection
  covercode  deterministic greedy covering codes
  search     bitset constraint kernel, ball search, and the full solvers
  walk       the random walk's kernel and its draws from per-restart byte blocks
  analysis   running-time bases and the absorbing-walk analysis
  cli        command-line front end (entry point: dkcsp)

Code imports what it uses from these modules; the package re-exports
nothing, so importing `dkcsp` alone loads none of them.
"""

import re

_DECIMALS = re.compile(r"[0-9\s]+")


def _decimals(text: str) -> list[int]:
    """The whitespace-separated numbers of text, as instance and graph files
    write them: ASCII decimal digits (int() alone also reads "+1", "1_0" and
    other scripts' digits). ValueError on anything else, and on a number
    longer than int() reads."""
    if not _DECIMALS.fullmatch(text):
        raise ValueError(f"not decimal numbers: {text!r}")
    return [*map(int, text.split())]


class _Record:
    """Value equality, hashing and repr over a class's __slots__, in order;
    slots named with a leading underscore are caches, not part of the value."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__ if name[0] != "_")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in type(self).__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"
