"""Coevolutionary self-play on impartial combinatorial games.

Game graphs and strategies live in :mod:`coevo.graphs`, the Sprague-Grundy
solver in :mod:`coevo.grundy`, benchmark constructors in
:mod:`coevo.games`, the distribution-based optimiser in :mod:`coevo.eda`,
forced-visit analysis in :mod:`coevo.switchability`, exact validation
oracles in :mod:`coevo.oracles`, and the experiment harness in
:mod:`coevo.harness`. References that only the tests run, such as the scalar
playout and the sufficient optimality certificate, live in ``tests/helpers.py``.
"""

from .eda import ProbModel, RunResult, UmdaConfig, restrict, run_umda, uniform_model
from .games import GameSpec, chomp, fixture, silver_dollar, subtraction_nim, turning_turtles
from .graphs import GameGraph, Strategy, build_graph, csr_graph
from .grundy import (
    GrundyData,
    canonical_optimal_strategy,
    critical_rows,
    ensure_first_player_win,
    grundy_values,
    is_optimal_exact,
)
from .switchability import SwitchabilityReport, switchability_profile

__version__ = "0.1.0"

__all__ = [
    "GameGraph",
    "GameSpec",
    "GrundyData",
    "ProbModel",
    "RunResult",
    "Strategy",
    "SwitchabilityReport",
    "UmdaConfig",
    "build_graph",
    "canonical_optimal_strategy",
    "chomp",
    "critical_rows",
    "csr_graph",
    "ensure_first_player_win",
    "fixture",
    "grundy_values",
    "is_optimal_exact",
    "restrict",
    "run_umda",
    "silver_dollar",
    "subtraction_nim",
    "switchability_profile",
    "turning_turtles",
    "uniform_model",
]
