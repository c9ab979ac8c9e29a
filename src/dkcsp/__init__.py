"""Solvers and analysis for (d,k)-CSP with color-graph distances.

Modules:
  formula    instance types, parsing, generation, brute-force oracle
  colorgraph graphs on the color set and the induced product distance
  volume     exact shell counts, ball volumes and radius selection
  covercode  deterministic greedy covering codes
  search     bitset constraint kernel, ball search, random walks, and the full solvers
  analysis   running-time bases and the absorbing-walk analysis
  cli        command-line front end (entry point: dkcsp)
"""

from .analysis import (
    base_for_graph,
    base_report,
    base_schoening,
    markov_simulate,
    reach_probability,
    solve_lambda,
)
from .colorgraph import (
    ColorGraph,
    DistanceProfile,
    assignment_distance,
    complete,
    directed_cycle,
    hypercube,
    profile,
)
from .covercode import CoveringCode, build_code, greedy_cover, product_code
from .formula import (
    Constraint,
    Formula,
    Literal,
    brute_force_solve,
    evaluate,
    generate_random,
    normalize,
    parse_instance,
    serialize_instance,
)
from .search import SolveResult, det_solve, graph_searchball, schoening_solve
from .volume import ball_volume, select_radius, shell_counts

__version__ = "0.1.0"
