"""Maxmin fair division of a divisible good on [0,1].

Preferences are probability densities on the unit interval; coalitions value
pieces by the pointwise max of member densities.  The weighted maxmin value
is the minimum over the unit simplex of a convex function g; two solvers
bracket it between certified upper and lower bounds.  The induced
coalitional game and its Shapley values are built on the same weighted
maxmin value.

A cutting-plane solver (``cutting_plane_value``, Kelley's method) needs no
step rule.  It computes the ``solve`` command's bracket, the game values
(``full_game``, for every coalition or the ones passed as ``subsets``) and
the pre-division weights, which are the dual (lambda) mix of its maxsum
partitions: an equitable partition that splits a few cells.  The paper's
projected subgradient method (``solve_value``, ``solve_partition``) runs
the ``partition`` and ``trace`` commands with a fixed step rule: base step
0.5/(t+1), clipped to 9/10 of the largest interior step.
Both solvers start at the uniform alpha.
"""

from .bounds import lower_bound
from .coalitions import (GameEntry, GameTable, ShapleyResult, WeightSystem,
                         cardinality_weights, full_game, pre_division_weights,
                         pre_division_from_table, shapley, weight_of)
from .cutting import cutting_plane_value
from .measures import (DensitySpec, Grid, MeasureTable, cell_masses,
                       coalition_table, density_cdf, density_eval)
from .partition import (Allocation, PvvResult, WeightedProblem,
                        maxsum_partition, weighted_problem)
from .problemfile import (PlayerSpec, Problem, ProblemFormatError,
                          load_problem, save_problem)
from .subgradient import (SolveResult, SolverConfig, TraceRow, clipped_step,
                          solve_partition, solve_value, update_alpha)

__all__ = [
    "Allocation", "DensitySpec", "GameEntry", "GameTable", "Grid",
    "MeasureTable", "PlayerSpec", "Problem", "ProblemFormatError",
    "PvvResult", "ShapleyResult", "SolveResult", "SolverConfig", "TraceRow",
    "WeightSystem", "WeightedProblem",
    "cardinality_weights", "cell_masses", "clipped_step", "coalition_table",
    "cutting_plane_value", "density_cdf", "density_eval", "full_game",
    "load_problem", "lower_bound", "maxsum_partition", "pre_division_weights",
    "pre_division_from_table", "save_problem", "shapley", "solve_partition",
    "solve_value", "update_alpha", "weight_of", "weighted_problem",
]

__version__ = "0.1.0"
