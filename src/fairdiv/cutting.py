"""Cutting-plane solver for the weighted maxmin value (Kelley, 1960).

Every maxsum value vector u is an achievable point of the convex utility
range, and so is every axis point totals_q e_q (all of the cake to
coalition q).  The columns held so far, the rows c of C, define the master LP

    min z  s.t.  <c, alpha> <= z  for every column c,  sum alpha = 1,
                 alpha >= 0,

whose solution alpha is where the cutting-plane model of g is lowest: the
next point to query.  Its inequality duals lambda weight the columns; the
weighted combination is itself achievable, so its smallest coordinate is a
certified lower bound.  The bound is computed from the columns in numpy
rather than read off the LP objective: any lambda on the simplex gives a
valid bound, so the LP's rounding never enters a certified number.  The upper
bound is the smallest g seen.

The master LP is small (one row per held column, one column per coalition)
and is solved exactly by a dense simplex in ``_master_lp``.

Every column is a cell assignment (axis column q gives every cell to q), so
the same lambda mix of the assignments is an achievable fractional
partition whose value vector is lambda C; at the optimum it is equitable.
This is the LP-duality form of the paper's statement that the competitive
optimum is a convex combination of maxsum partitions (``shares``).

Unlike the projected subgradient method, nothing here is tuned: there is no
step rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import lower_bound
from .partition import WeightedProblem, maxsum_partition
from .subgradient import _EXACT_STOP_TOL, SolveResult, SolverConfig

#: reduced costs, pivots and ratio ties below this count as zero; the
#: tableau is scaled so its largest column entry is 1
_PIVOT_TOL = 1e-12


def _master_lp(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the master LP over the held columns C, shape (n, m).

    Every column is nonnegative and the axis rows make the master value v
    positive, so with y = alpha / v the master LP is

        max 1'y  s.t.  C y <= 1,  y >= 0,

    whose slack basis is feasible: no phase I.  A condensed simplex tableau
    with Bland's rule (smallest index enters and leaves, so it terminates)
    solves it.  The dual, min 1'mu s.t. C'mu >= 1, mu >= 0, has mu_i = the
    reduced cost of slack i in the final objective row; lambda = mu / sum mu
    weights the columns so that min(lambda C) = v = max(C alpha).

    Returns alpha = y / sum y and lambda, both on the simplex.  Raises
    ``RuntimeError`` if the pivot cap is reached.
    """
    n, m = columns.shape
    # rows 0..n-1: basic variable = rhs - sum_k t[i, k] * nonbasic_k;
    # row n: -(reduced costs) and the objective value 1'y
    t = np.empty((n + 1, m + 1))
    t[:n, :m] = columns / columns.max()
    t[:n, m] = 1.0
    t[n, :m] = -1.0
    t[n, m] = 0.0
    # variables 0..m-1 are y, m..m+n-1 the slacks
    col_var = np.arange(m)
    row_var = np.arange(m, m + n)
    max_pivots = 20 * (n + m)
    for _ in range(max_pivots):
        enter = np.flatnonzero(t[n, :m] < -_PIVOT_TOL)
        if enter.size == 0:
            break
        c = enter[np.argmin(col_var[enter])]
        rows = np.flatnonzero(t[:n, c] > _PIVOT_TOL)
        if rows.size == 0:  # the axis rows bound y; only rounding gets here
            raise RuntimeError("master LP lost its bounding axis rows")
        ratio = np.maximum(t[rows, m], 0.0) / t[rows, c]
        ties = rows[ratio <= ratio.min() + _PIVOT_TOL]
        r = ties[np.argmin(row_var[ties])]
        p = t[r, c]
        pivot_row = t[r] / p
        col = t[:, c].copy()
        t -= np.outer(col, pivot_row)
        t[r] = pivot_row
        t[:, c] = -col / p
        t[r, c] = 1.0 / p
        col_var[c], row_var[r] = row_var[r], col_var[c]
    else:
        raise RuntimeError(f"master LP did not reach an optimum within "
                           f"{max_pivots} pivots")
    primal = np.zeros(m + n)
    primal[row_var] = np.maximum(t[:n, m], 0.0)
    dual = np.zeros(m + n)
    dual[col_var] = np.maximum(t[n, :m], 0.0)
    y, mu = primal[:m], dual[m:]
    return y / y.sum(), mu / mu.sum()


@dataclass(frozen=True, kw_only=True)
class CuttingResult(SolveResult):
    """A cutting-plane solve, with the held columns and their assignments.

    ``columns`` stacks the m axis points, then every held value vector;
    ``assignments`` holds the cell assignment of each non-axis column, in
    the same order.
    """

    columns: np.ndarray
    assignments: tuple[np.ndarray, ...]

    @cached_property
    def shares(self) -> np.ndarray:
        """Fractional partition shares[j, k] = sum_i lambda_i [a_i(k) = j].

        lambda comes from one master LP over the final columns (the loop's
        last one predates the last column).  Every cell's shares sum to 1,
        and the value vector (shares * cell_values).sum(axis=1) is lambda C:
        its smallest coordinate is the master-LP value, and it is equitable
        wherever the master LP's alpha is interior.
        """
        m = self.columns.shape[1]
        _, lam = _master_lp(self.columns)
        cells = np.arange(self.assignments[0].size)
        out = np.repeat(lam[:m, None], cells.size, axis=1)
        for weight, assignment in zip(lam[m:], self.assignments):
            out[assignment, cells] += weight
        return out


def cutting_plane_value(problem: WeightedProblem,
                        config: SolverConfig = SolverConfig()) -> CuttingResult:
    """Shrink the certified bracket around the maxmin value to epsilon.

    Stops when the bracket is narrower than ``config.epsilon`` or pinched
    exactly (converged), when the oracle returns a value vector already held
    (the master LP would repeat itself; not converged), or after
    ``config.max_iterations`` master-LP iterations (not converged).  The
    step rule and ``record_trace`` of ``config`` are not used.  The result
    carries the query point with the smallest g, and the held columns with
    their lambda-mix ``shares``.
    """
    totals = problem.totals
    pvv = maxsum_partition(problem, np.full(problem.m, 1.0 / problem.m))
    best = pvv
    lb = lower_bound(pvv, totals)
    columns = np.vstack([np.diag(totals), pvv.u])
    assignments = [pvv.allocation.assignment]
    stalled = False

    t = 0
    while True:
        if best.g_value - lb < max(config.epsilon, _EXACT_STOP_TOL):
            converged = True
            break
        if stalled or t >= config.max_iterations:
            converged = False
            break
        alpha, lam = _master_lp(columns)
        lb = max(lb, float((lam @ columns).min()))
        pvv = maxsum_partition(problem, alpha)
        t += 1
        if pvv.g_value < best.g_value:
            best = pvv
        lb = max(lb, lower_bound(pvv, totals))
        stalled = bool((columns == pvv.u).all(axis=1).any())
        if not stalled:
            columns = np.vstack([columns, pvv.u])
            assignments.append(pvv.allocation.assignment)

    # on an exact pinch (always so for m == 1) g and the bound sum the same
    # cells in different orders and may differ in the last bit
    return CuttingResult(lower=min(lb, best.g_value), upper=best.g_value,
                         alpha=best.alpha, pvv=best, iterations=t,
                         converged=converged, columns=columns,
                         assignments=tuple(assignments))
