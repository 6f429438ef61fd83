"""kempe: edge-coloring machinery and verification harness for
chromatic-index analysis of simple graphs at desk scale."""

from .graph import (
    Graph,
    Graph6Error,
    SplitSpec,
    builtin_fixture,
    from_graph6,
    full_deficiency_pairs,
    is_overfull,
    split_vertex,
    to_graph6,
)
from .coloring import (
    ColoringError,
    ChainError,
    KempeChain,
    PartialEdgeColoring,
    ScriptError,
    SwapScript,
    apply_script,
    parse_coloring,
)
from .classify import (
    BudgetExceededError,
    GraphClass,
    delta_coloring_of_minus_e,
    exact_chromatic_index,
    find_edge_coloring,
    is_critical_edge,
    is_delta_critical,
    vizing_plus_one_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Graph6Error",
    "SplitSpec",
    "builtin_fixture",
    "from_graph6",
    "full_deficiency_pairs",
    "is_overfull",
    "split_vertex",
    "to_graph6",
    "ColoringError",
    "ChainError",
    "KempeChain",
    "PartialEdgeColoring",
    "ScriptError",
    "SwapScript",
    "apply_script",
    "parse_coloring",
    "BudgetExceededError",
    "GraphClass",
    "delta_coloring_of_minus_e",
    "exact_chromatic_index",
    "find_edge_coloring",
    "is_critical_edge",
    "is_delta_critical",
    "vizing_plus_one_coloring",
]
