"""Maxmin fair division of a divisible good on [0,1].

Preferences are probability densities on the unit interval; coalitions value
pieces by the pointwise max of member densities.  A projected subgradient
method over the unit simplex computes the weighted maxmin value with
certified upper and lower bounds.  The induced coalitional game and its
Shapley values are built on the same weighted maxmin value.

Game values (``full_game``, ``game_value``) and pre-division weights come
from a cutting-plane solver (``cutting_plane_value``), which needs no step
rule; pre-division weights are the dual (lambda) mix of its maxsum
partitions, an equitable partition that splits a few cells.  The step rule
of ``SolverConfig`` (``--step-scale``/``--clip-k`` on the command line)
applies to the subgradient solves only: ``solve_value`` and
``solve_partition``.
"""

from .bounds import BoundPair, bound_pair, lower_bound, upper_bound
from .coalitions import (GameEntry, GameTable, ShapleyResult, WeightSystem,
                         cardinality_weights, full_game, game_value,
                         pre_division_weights, shapley, weight_of)
from .cutting import cutting_plane_value
from .measures import (DensitySpec, Grid, MeasureTable, cell_masses,
                       coalition_table, density_cdf, density_eval)
from .partition import (Allocation, PvvResult, WeightedProblem, g_eval,
                        maxsum_partition, weighted_problem)
from .problemfile import (PlayerSpec, Problem, ProblemFormatError,
                          load_problem, save_problem)
from .subgradient import (IterationTrace, SolveResult, SolverConfig, StepRule,
                          clipped_step, solve_partition, solve_value,
                          update_alpha)

__all__ = [
    "Allocation", "BoundPair", "DensitySpec", "GameEntry", "GameTable",
    "Grid", "IterationTrace", "MeasureTable", "PlayerSpec", "Problem",
    "ProblemFormatError", "PvvResult", "ShapleyResult", "SolveResult",
    "SolverConfig", "StepRule", "WeightSystem", "WeightedProblem",
    "bound_pair", "cardinality_weights", "cell_masses", "clipped_step",
    "coalition_table", "cutting_plane_value", "density_cdf", "density_eval",
    "full_game", "g_eval", "game_value", "load_problem", "lower_bound",
    "maxsum_partition", "pre_division_weights", "save_problem", "shapley",
    "solve_partition", "solve_value", "update_alpha", "upper_bound",
    "weight_of", "weighted_problem",
]

__version__ = "0.1.0"
