"""Exact and approximate optimization of max/min counting queries over
sparse relational structures, with a verifiable reduction chain down to
k-ary maximum/minimum inner product."""

from .baseline import OptResult, baseline_opt, baseline_values
from .formula import OptFormula, check_schema, evaluate_body, parse_formula
from .generate import GenProfile, generate
from .hybrid import (
    HybridInstance,
    hash_element,
    hybrid_baseline,
    hybrid_to_basic,
    prime_support,
    solve_hybrid,
    universe_reduce,
    val,
)
from .ip import IPInstance, IpSolver, approx_wrapper, brute_force_kmaxip, brute_force_kminip, exact_solver
from .fastcount import TripartiteGraph, and_basis_coefficients, multi_counting_opt, triangle_counts
from .reduction import (
    DecompositionPlan,
    ReductionTrace,
    reduce_and_solve,
    remove_hyperedges,
    remove_parallel_edges,
    solve_cross_free_lift,
    solve_positive_cross_edge,
    to_hybrid,
)
from .structure import RelationalStructure, load_structure

__all__ = [name for name in dir() if not name.startswith("_")]
