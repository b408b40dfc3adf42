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
bound is the smallest g seen on the full grid.

A solve runs on two grids with one master LP.  Every assignment of coarse
cells is also an assignment of the fine ones, so the value vector of a
maxsum partition of an aggregate grid is an achievable point of the K-cell
range too.  The loop therefore starts on the grid made by halving K while it
is even and above ``_COARSE_CELLS`` (4,096 -> 64; an odd K, or one of at most
64 cells, has no coarse phase), whose masses sum the fine ones, and only g
needs all K cells.  While the coarse bracket [lb, smallest coarse g] is at
least epsilon wide, the queries are coarse.  Once it closes, or a coarse
query returns a held column, or one iteration of the cap is left, one
full-grid query at the coarse query with the smallest g gives the first
upper bound, and its column joins the LP.  The loop goes on on the full
grid, as a one-grid solve would, while [lb, smallest full-grid g] is still
at least epsilon wide.  A coarse column equals the K-cell value vector of
the same assignment only up to regrouping rounding: the two sum the same
masses in different groups and divide by the weight before or after, so
they differ by at most 2 gamma_K totals per coordinate (gamma_K = K u / (1 -
K u), u the unit roundoff), about 1e-12 relative at 4,096 cells.  A rigorous
widening of lb must cover that term.

For the same reason each iteration reads alpha and lambda straight off the
master LP's basis (``_MasterLP.read``): rounding that its pivots gather can
only move them a little along the simplex, which costs at most a slightly
worse query or bound, never a wrong one.  The basis is re-solved for the
final lambda behind ``shares`` only when the result's ``lam`` is first read;
game values and brackets never read it.  Every query is the master LP's
alpha, the first one too: over the axis points alone that is alpha
proportional to 1 / totals (uniform where the totals are equal).  The
lambda bound is read as soon as a column joins the master LP, and the
bracket is tested on it, so no query is spent on a grid once the held
columns close that grid's bracket.  It is the only lower bound: once the
first value vector joins the axis points, the master LP bounds at least as
high as that vector's closed-form diagonal bound (``bounds.lower_bound``).
A value vector already held (a hashed lookup of its bytes, the axis points
included) would make the master LP repeat itself: on the coarse grid it
ends the coarse phase, and on the full grid it stalls the solve.

The master LP is small (one row per held column, one column per coalition)
and is solved exactly by a revised simplex on its dual (``_MasterLP``),
which keeps only an m x m basis inverse, whatever the number of held
columns.  Every solve starts at the closed-form optimum of the axis rows,
and every value vector joins as one more column of the dual, so one basis
lives for the whole solve and each pivot costs O(m^2).  Pricing the held
columns is one numpy matvec; the pivots and the reads are taken on Python
floats.  The columns' storage is allocated once, for ``_ROWS`` held
columns, and doubles only past that.

Every column is a cell assignment (axis column q gives every cell to q; a
coarse column gives each fine cell to its coarse cell's coalition), so the
same lambda mix of the assignments is an achievable fractional partition
whose value vector is lambda C, up to the regrouping rounding; at the
optimum it is equitable.
This is the LP-duality form of the paper's statement that the competitive
optimum is a convex combination of maxsum partitions (``shares``).

There is no step rule: the master LP picks each query point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

import numpy as np

from .measures import Grid, MeasureTable
from .partition import (Allocation, PvvResult, WeightedProblem,
                        _pairwise_sum, maxsum_partition)
from .subgradient import _EXACT_STOP_TOL, SolveResult, SolverConfig

#: reduced costs, pivots and ratio ties below this count as zero; the columns
#: are scaled so that their largest entry is 1
_PIVOT_TOL = 1e-12
#: pivot caps: per held column and coalition of a restart from the axis
#: basis (then ``RuntimeError``), and per re-solve after an add (then a
#: restart)
_COLD_PIVOTS = 20
_WARM_PIVOTS = 50
#: held columns (axis points included) the master LP's storage takes before
#: it first doubles: above every game solve of the bundled five players (26 at
#: most, on both grids), below the 73 of their pre-division pre-solve
_ROWS = 32
#: a solve runs on the grid made by halving the cell count while it is even
#: and above this, before the full grid
_COARSE_CELLS = 64


class _MasterLP:
    """Revised simplex on the dual of the master LP over the columns C held
    so far.

    Every column is nonnegative and the axis rows make the master value v
    positive, so with y = alpha / v and C scaled by 1 / scale the master LP
    and its dual are

        max 1'y  s.t.  C y <= 1,  y >= 0;
        min 1'mu  s.t.  C'mu - s = 1,  mu >= 0,  s >= 0.

    The dual has m rows, so a basis is m of its variables, numbered as the
    master LP's own: surplus s_j is variable j (basic where y_j is
    nonbasic) and mu_i is m + i (basic where column i binds, its slack
    nonbasic).  The LP keeps just the basis inverse B^-1 (m x m), the basic
    values x_B = B^-1 1 and the prices pi = c_B' B^-1, which are y.  They
    are Python floats: with m entries, numpy's per-call dispatch would cost
    more than the arithmetic.

    Every solve starts at the optimum of the m axis rows alone, in closed
    form: mu_j = y_j = scale / totals_j.  That basis is feasible for the
    dual, and ``add`` keeps it so, since a new column is one more nonbasic
    mu.  So only primal pivots on the dual (the master LP's dual-simplex
    pivots) are ever made, under Bland's rule (smallest index enters, and
    smallest index leaves among ratio ties), which terminates.  Pricing
    takes the reduced cost pi_j of each nonbasic s_j, then 1 - c_i pi of the
    held columns in one numpy matvec; right after an add only the new
    column's, since the basis is optimal for the others.  A pivot updates
    B^-1, x_B and pi in O(m^2).  A pivot or two restores optimality after
    an add; if a re-solve fails, the LP restarts from the axis basis, then
    pivots again.  One instance lives for one solve, at one scale;
    ``pivots`` counts its pivots, restarts included.
    """

    def __init__(self, totals: np.ndarray, scale: float):
        m = self.m = self.n = totals.size
        self.scale, self.pivots = scale, 0
        self._c = np.empty((max(_ROWS, 2 * m), m))
        self._c[:m] = np.diag(totals)
        self.columns = self._c[:m]
        self._axis_start()

    def _axis_start(self) -> None:
        m = self.m
        y = (self.scale / self._c.diagonal()).tolist()
        self._basis = list(range(m, 2 * m))
        self._inv = [[0.0] * m for _ in range(m)]
        for j in range(m):
            self._inv[j][j] = y[j]
        self._x, self._pi = y, y.copy()

    def add(self, column: np.ndarray) -> None:
        """Hold one more column and re-solve from the current basis."""
        n, m = self.n, self.m
        if n == len(self._c):  # np.resize keeps the leading rows
            self._c = np.resize(self._c, (2 * n, m))
        self._c[n] = column
        self.n, self.columns = n + 1, self._c[:n + 1]
        # the basis is optimal for the columns before, so only the new one
        # can price out
        cost = 1.0 - sum(map(mul, self._c[n].tolist(), self._pi)) / self.scale
        if cost < -_PIVOT_TOL and not self._solve(_WARM_PIVOTS, (m + n, cost)):
            self._cold()

    def _cold(self) -> None:
        self._axis_start()
        cap = _COLD_PIVOTS * (self.n + self.m)
        if not self._solve(cap, self._entering()):
            raise RuntimeError(f"master LP did not reach an optimum within "
                               f"{cap} pivots")

    def _entering(self) -> tuple[int, float] | None:
        """Bland's entering variable and its reduced cost: the smallest
        index whose reduced cost is below -``_PIVOT_TOL``, None at an
        optimum."""
        pi = self._pi
        for j, cost in enumerate(pi):
            if cost < -_PIVOT_TOL:  # pi_j is exactly 0 where s_j is basic
                return j, cost
        m, basis, scale = self.m, self._basis, self.scale
        # the reduced cost 1 - c_i pi / scale is below -tol
        prices = self.columns @ np.array(pi)
        for i in (prices > scale + scale * _PIVOT_TOL).nonzero()[0].tolist():
            if m + i not in basis:
                return m + i, 1.0 - float(prices[i]) / scale
        return None

    def _solve(self, max_pivots: int,
               entering: tuple[int, float] | None) -> bool:
        """Pivots from ``entering`` on while a reduced cost is negative.
        False if that takes more than ``max_pivots`` pivots, or on a
        rounding-lost bound."""
        m, inv, x, basis = self.m, self._inv, self._x, self._basis
        for pivots in itertools.count():
            if entering is None:
                return True
            q, cost = entering
            if q < m:
                d = [-row[q] for row in inv]
            else:
                a, scale = self._c[q - m].tolist(), self.scale
                d = [sum(map(mul, row, a)) / scale for row in inv]
            ratios = [(max(xk, 0.0) / dk, k)
                      for k, (xk, dk) in enumerate(zip(x, d))
                      if dk > _PIVOT_TOL]
            # no ratio only by rounding, since y = 0 is feasible
            if not ratios or pivots == max_pivots:
                return False
            least = min(ratios)[0] + _PIVOT_TOL
            r = min([(basis[k], k) for v, k in ratios if v <= least])[1]
            self._exchange(r, q, d, cost)
            entering = self._entering()

    def _exchange(self, r: int, q: int, d: list[float], cost: float) -> None:
        """One pivot: variable q, of reduced cost ``cost``, enters at basis
        position r along d = B^-1 a_q; B^-1, x_B and pi are updated in
        O(m^2)."""
        self.pivots += 1
        inv, x, p = self._inv, self._x, d[r]
        step = cost / p
        self._pi = [a + step * b for a, b in zip(self._pi, inv[r])]
        if q < self.m:  # y_q leaves the basis: exactly 0
            self._pi[q] = 0.0
        row, xr = [b / p for b in inv[r]], x[r] / p
        for k, dk in enumerate(d):
            if k != r and dk != 0.0:
                inv[k] = [a - dk * b for a, b in zip(inv[k], row)]
                x[k] -= dk * xr
        inv[r], x[r] = row, xr
        self._basis[r] = q

    def read(self) -> tuple[np.ndarray, np.ndarray]:
        """alpha and lambda as the LP holds them, clipped at 0 and
        normalized onto the simplex: alpha from the prices pi, lambda from
        the basic mu's in basis order (0 for every other column).  Read on
        Python floats; the clip, the pairwise sum and the division give the
        bits of ``np.maximum(x, 0.0)``, ``.sum()`` and ``/``, NaN
        included."""
        m = self.m
        y = [0.0 if x <= 0.0 else x for x in self._pi]
        rows = [(v - m, 0.0 if x <= 0.0 else x)
                for v, x in zip(self._basis, self._x) if v >= m]
        total = _pairwise_sum([x for _, x in rows])
        lam = np.zeros(self.n)
        for i, x in rows:
            lam[i] = x / total
        return np.array(y) / _pairwise_sum(y), lam

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        """alpha = y / sum y and lambda = mu / sum mu, both on the simplex.

        The dual has min(lambda C) = v = max(C alpha).  Both are solved
        from the basis: binding rows R and basic y_B give C[R, B] y_B = 1
        and mu_R' C[R, B] = 1', so rounding that the updates gather over
        many pivots only picks the basis.
        """
        n, m = self.n, self.m
        binding = sorted(v - m for v in self._basis if v >= m)
        basic = sorted(set(range(m)) - set(self._basis))
        inv = np.linalg.inv(self.columns[binding][:, basic])
        y = np.zeros(m)
        y[basic] = np.maximum(inv.sum(axis=1), 0.0)
        mu = np.zeros(n)
        mu[binding] = np.maximum(inv.sum(axis=0), 0.0)
        return y / y.sum(), mu / mu.sum()


@dataclass(frozen=True, kw_only=True)
class CuttingResult(SolveResult):
    """A cutting-plane solve, with the held columns and their queries.

    ``columns`` stacks the m axis points, then every held value vector;
    ``queries`` holds, row by row in the same order, the alpha at which the
    oracle returned each non-axis column (m floats, not its K-cell
    assignment), ``coarse`` whether it was on the coarse grid (every coarse
    column comes before every full-grid one), and ``lam`` the master LP's
    final lambda over all columns, re-solved from the final basis on first
    read and then kept.  ``problem`` is the problem solved, whose oracle
    ``shares`` re-runs.  ``stop_reason`` is why the loop stopped:
    ``"epsilon"`` (bracket narrower than epsilon), ``"exact"`` (narrower
    than the rounding floor of 1e-12, for an epsilon below that),
    ``"stall"`` (the full-grid oracle returned a held column) or
    ``"max_iter"``; ``pivots`` counts the master LP's simplex pivots.
    """

    problem: WeightedProblem
    columns: np.ndarray
    queries: np.ndarray
    coarse: np.ndarray
    stop_reason: str
    pivots: int
    _master: _MasterLP = field(repr=False, compare=False)

    @cached_property
    def lam(self) -> np.ndarray:
        """The master LP's final lambda (``_MasterLP.solution``)."""
        return self._master.solution()[1]

    @cached_property
    def shares(self) -> np.ndarray:
        """Fractional partition shares[j, k] = sum_i lambda_i [a_i(k) = j].

        lambda is the master LP's final one, over every held column.  The
        assignments a_i are rebuilt, not kept: the maxsum oracle is re-run
        at the query of each column with lambda > 0, in column order, on the
        grid the column was found on.  It is deterministic, so each is the
        assignment the solve saw, and a column of lambda 0 would add
        nothing.  The axis and coarse columns are mixed on the coarse cells,
        and that mix is spread over the fine cells (``np.repeat``) before
        the full-grid columns join.  Every cell's shares sum to 1, and the
        value vector (shares * cell_values).sum(axis=1) is lambda C up to
        the regrouping rounding of the coarse columns: its smallest
        coordinate is the master-LP value, and it is equitable wherever the
        master LP's alpha is interior.
        """
        m, lam = self.columns.shape[1], self.lam
        out = lam[:m, None]
        for grid, on_coarse in ((_coarse_problem(self.problem), True),
                                (self.problem, False)):
            cells = np.arange(grid.grid.cell_count)
            out = np.repeat(out, cells.size // out.shape[1], axis=1)
            mine = self.coarse == on_coarse
            for weight, alpha in zip(lam[m:][mine], self.queries[mine]):
                if weight > 0:
                    pvv = maxsum_partition(grid, alpha)
                    out[pvv.allocation.assignment, cells] += weight
        return out


def _coarse_problem(problem: WeightedProblem) -> WeightedProblem:
    """``problem`` on the grid of at most ``_COARSE_CELLS`` cells made by
    halving its cell count while it is even and above that; ``problem``
    itself when no halving is possible.  A coarse cell's mass is the sum of
    its fine cells' masses, so no table is rebuilt."""
    cells = fine = problem.grid.cell_count
    while cells % 2 == 0 and cells > _COARSE_CELLS:
        cells //= 2
    if cells == fine:
        return problem
    table = problem.table
    masses = table.masses.reshape(problem.m, cells, fine // cells).sum(axis=2)
    return WeightedProblem(MeasureTable(Grid(cells), table.coalitions, masses),
                           problem.weights)


def cutting_plane_value(problem: WeightedProblem,
                        config: SolverConfig = SolverConfig()) -> CuttingResult:
    """Shrink the certified bracket around the maxmin value to epsilon, on
    the coarse grid first and then on the full grid (module docstring).

    Stops when the full-grid bracket is narrower than ``config.epsilon`` or
    pinched exactly (converged), when the full-grid oracle returns a value
    vector already held (the master LP would repeat itself; not converged),
    or after ``config.max_iterations`` master-LP iterations on both grids,
    the first query (at the axis optimum) not counted (not converged); the
    result's ``stop_reason`` says which.
    ``config.record_trace`` is not used.  The result carries the full-grid
    query point with the smallest g, and the held columns with their
    queries and lambda-mix ``shares``.  A single coalition's value is its
    total, so that solve makes no oracle call: it returns the bracket
    [totals[0], totals[0]] and the whole cake to coalition 0 at alpha =
    (1,), after 0 iterations (stop reason ``"epsilon"``).
    """
    totals = problem.totals
    grid = _coarse_problem(problem)
    # every value vector is at most totals, up to summation order
    lp = _MasterLP(totals, totals.max())
    held = {u.tobytes() for u in lp.columns}
    queries, coarse = [], []
    best, lb, stalled, calls = None, -np.inf, False, 0
    if problem.m == 1:
        # the whole cake to the one coalition is the value, and the axis
        # bound already equals it: no query is needed
        grid, best = problem, PvvResult(
            alpha=np.ones(1), allocation=Allocation(problem.grid, np.zeros(
                problem.grid.cell_count, dtype=np.intp)),
            u=totals.copy(), g_value=float(totals[0]))

    while True:
        # the bracket is tested on the bound of the LP that holds every
        # column so far, the newest one included
        alpha, lam = lp.read()
        lb = max(lb, min((lam @ lp.columns).tolist()))
        width = np.inf if best is None else best.g_value - lb
        # the first query, at the axis optimum, is no iteration; the coarse
        # phase leaves the last iteration to the full grid
        reason = ("epsilon" if width < config.epsilon
                  else "exact" if width < _EXACT_STOP_TOL
                  else "stall" if stalled
                  else "max_iter"
                  if calls > config.max_iterations - (grid is not problem)
                  else None)
        if reason is not None and grid is not problem:
            # a coarse g bounds only the coarse value: certify at the best
            # coarse query on the full grid, and go on there
            grid, alpha, best, reason = problem, best.alpha, None, None
        if reason is not None:
            break
        pvv = maxsum_partition(grid, alpha)
        calls += 1
        if best is None or pvv.g_value < best.g_value:
            best = pvv
        key = pvv.u.tobytes()
        stalled = key in held
        if not stalled:
            held.add(key)
            lp.add(pvv.u)
            queries.append(pvv.alpha)
            coarse.append(grid is not problem)

    # on an exact pinch g and the bound sum the same cells in different
    # orders and may differ in the last bit
    return CuttingResult(lower=min(lb, best.g_value), upper=best.g_value,
                         pvv=best, iterations=max(calls - 1, 0),
                         converged=reason in ("epsilon", "exact"),
                         problem=problem, columns=lp.columns,
                         queries=np.reshape(queries, (-1, problem.m)),
                         coarse=np.array(coarse, dtype=bool),
                         stop_reason=reason, pivots=lp.pivots, _master=lp)
