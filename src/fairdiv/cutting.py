"""Cutting-plane solver for the weighted maxmin value (Kelley, 1960).

Every maxsum value vector u is an achievable point of the convex utility
range, and so is every axis point totals_q e_q (all of the cake to
coalition q).  The columns held so far define the master LP

    min z  s.t.  <c, alpha> <= z  for every column c,  sum alpha = 1,
                 alpha >= 0,

whose solution alpha is where the cutting-plane model of g is lowest: the
next point to query.  Its inequality duals weight the columns; the weighted
combination is itself achievable, so its smallest coordinate is a certified
lower bound.  The bound is computed from the columns in numpy rather than
read off the LP objective, so the LP solver's tolerances never enter a
certified number.  The upper bound is the smallest g seen.

Unlike the projected subgradient method, nothing here is tuned: there is no
step rule.  Each oracle call costs one small LP on top.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .bounds import lower_bound
from .partition import WeightedProblem, maxsum_partition
from .subgradient import (_EXACT_STOP_TOL, SolveResult, SolverConfig,
                          _initial_alpha)


def _master_lp(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the master LP over the held columns, shape (n, m).

    Returns the simplex point alpha (clipped at 0, renormalized) and the
    column weights lambda from the inequality duals (same treatment).
    """
    n, m = columns.shape
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    a_ub = np.hstack([columns, -np.ones((n, 1))])
    a_eq = np.ones((1, m + 1))
    a_eq[0, m] = 0.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq,
                  b_eq=np.ones(1), bounds=[(0.0, None)] * m + [(None, None)],
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"master LP failed: {res.message}")
    alpha = np.maximum(res.x[:m], 0.0)
    lam = np.maximum(-res.ineqlin.marginals, 0.0)
    return alpha / alpha.sum(), lam / lam.sum()


def cutting_plane_value(problem: WeightedProblem,
                        config: SolverConfig = SolverConfig()) -> SolveResult:
    """Shrink the certified bracket around the maxmin value to epsilon.

    Stops when the bracket is narrower than ``config.epsilon`` or pinched
    exactly (converged), when the oracle returns a value vector already held
    (the master LP would repeat itself; not converged), or after
    ``config.max_iterations`` master-LP iterations (not converged).  The
    step rule and ``record_trace`` of ``config`` are not used.  The result
    carries the query point with the smallest g.
    """
    totals = problem.totals
    pvv = maxsum_partition(problem, _initial_alpha(problem, config))
    best = pvv
    lb = lower_bound(pvv, totals)
    columns = np.vstack([np.diag(totals), pvv.u])
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

    # on an exact pinch (always so for m == 1) g and the bound sum the same
    # cells in different orders and may differ in the last bit
    return SolveResult(lower=min(lb, best.g_value), upper=best.g_value,
                       alpha=best.alpha, pvv=best, iterations=t,
                       converged=converged)
