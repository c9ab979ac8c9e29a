"""Solvers and analysis for (d,k)-CSP with color-graph distances.

Modules:
  formula    instance types, parsing, generation, brute-force oracle
  colorgraph graphs on the color set and the induced product distance
  volume     exact shell counts, ball volumes and radius selection
  covercode  deterministic greedy covering codes
  search     bitset constraint kernel, ball search, random walks, and the full solvers
  analysis   running-time bases and the absorbing-walk analysis
  cli        command-line front end (entry point: dkcsp)

The names below are re-exported lazily: a module is imported when one of its
names is first read, so `dkcsp` itself imports nothing a command does not run.
"""

import importlib
import sys

_EXPORTS = {
    "analysis": ("base_for_graph", "base_schoening", "markov_simulate",
                 "reach_probability", "solve_lambda"),
    "colorgraph": ("ColorGraph", "DistanceProfile", "complete", "directed_cycle", "hypercube",
                   "profile"),
    "covercode": ("CoveringCode", "build_code", "greedy_cover", "product_code"),
    "formula": ("Constraint", "Formula", "Literal", "brute_force_solve", "evaluate",
                "generate_random", "parse_instance", "serialize_instance"),
    "search": ("SolveResult", "det_solve", "schoening_solve"),
    "volume": ("ball_volume", "select_radius", "shell_counts"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def _debug(logger: str, *args) -> None:
    """Emit a debug record on `logger` if logging is loaded: a handler exists
    only once someone configured one, which loads it, so dkcsp never does."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).debug(*args, stacklevel=2)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
