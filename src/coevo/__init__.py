"""Coevolutionary self-play on impartial combinatorial games.

Game graphs and playouts live in :mod:`coevo.graphs`, the Sprague-Grundy
solver in :mod:`coevo.grundy`, benchmark constructors in
:mod:`coevo.games`, the distribution-based optimiser in :mod:`coevo.eda`,
forced-visit analysis in :mod:`coevo.switchability`, exact validation
oracles in :mod:`coevo.oracles`, and the experiment harness in
:mod:`coevo.harness`.
"""

from .eda import ProbModel, RunResult, UmdaConfig, restrict, run_umda, uniform_model
from .games import GameSpec, chomp, fixture, silver_dollar, subtraction_nim, turning_turtles
from .graphs import GameGraph, Strategy, Transcript, build_graph, csr_graph, play
from .grundy import (
    GrundyData,
    canonical_optimal_strategy,
    critical_positions,
    ensure_first_player_win,
    grundy_values,
    is_optimal_exact,
    is_optimal_sufficient,
    mex,
)
from .switchability import (
    SwitchabilityReport,
    depth,
    exact_switchability,
    is_switcher,
    switchability_profile,
    upper_bound_switchability,
)

__version__ = "0.1.0"

__all__ = [
    "GameGraph",
    "GameSpec",
    "GrundyData",
    "ProbModel",
    "RunResult",
    "Strategy",
    "SwitchabilityReport",
    "Transcript",
    "UmdaConfig",
    "build_graph",
    "canonical_optimal_strategy",
    "chomp",
    "critical_positions",
    "csr_graph",
    "depth",
    "ensure_first_player_win",
    "exact_switchability",
    "fixture",
    "grundy_values",
    "is_optimal_exact",
    "is_optimal_sufficient",
    "is_switcher",
    "mex",
    "play",
    "restrict",
    "run_umda",
    "silver_dollar",
    "subtraction_nim",
    "switchability_profile",
    "turning_turtles",
    "uniform_model",
    "upper_bound_switchability",
]
