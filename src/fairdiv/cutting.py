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
simplex tableau (``tableau_solution``): rounding that the tableau gathers
can only move them a little along the simplex, which costs at most a
slightly worse query or bound, never a wrong one.  The basis is re-solved
for the final lambda behind ``shares`` only when the result's ``lam`` is
first read; game values and brackets never read it.  The lambda bound is
read as soon as a column joins the master LP, and the bracket is tested on
it, so no query is spent on a grid once the held columns close that grid's
bracket.  It is the only lower bound: from the first query on, the master LP
holds that value vector and the axis points, so it bounds at least as high
as the closed-form diagonal bound of ``bounds.lower_bound``.  A value vector
already held (a hashed lookup of its bytes) would make the master LP repeat
itself: on the coarse grid it ends the coarse phase, and on the full grid it
stalls the solve.

The master LP is small (one row per held column, one column per coalition)
and is solved exactly by a dense simplex (``_MasterLP``).  Every solve
starts at the closed-form optimum of the axis rows, which is dual
feasible, and every value vector, the first included, joins as one more
row, so one tableau lives for the whole solve and only dual-simplex pivots
are ever made.  Its storage is allocated once, for ``_ROWS`` held
columns, and doubles only past that.  The dual ratio test along a row and
the tableau read are taken on Python floats: with m entries, numpy's
per-call dispatch would cost more than the comparisons.

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

import numpy as np

from .measures import Grid, MeasureTable
from .partition import WeightedProblem, _pairwise_sum, maxsum_partition
from .subgradient import _EXACT_STOP_TOL, SolveResult, SolverConfig

#: reduced costs, pivots, ratio ties and negative right-hand sides below this
#: count as zero; the tableau is scaled so its largest column entry is 1
_PIVOT_TOL = 1e-12
#: pivot caps: per tableau row and column of a cold rebuild from the axis
#: start (then ``RuntimeError``), and per re-solve after an add (then a cold
#: rebuild)
_COLD_PIVOTS = 20
_WARM_PIVOTS = 50
#: held columns (axis points included) the master LP's storage takes before
#: it first doubles: above every game solve of the bundled five players (26 at
#: most, on both grids), below the 72 of their pre-division pre-solve
_ROWS = 32
#: a solve runs on the grid made by halving the cell count while it is even
#: and above this, before the full grid
_COARSE_CELLS = 64


class _MasterLP:
    """Simplex tableau of the master LP over the columns C held so far.

    Every column is nonnegative and the axis rows make the master value v
    positive, so with y = alpha / v the master LP is

        max 1'y  s.t.  C y <= 1,  y >= 0.

    Row 0 of the condensed tableau holds -(reduced costs) and 1'y; row 1 + i
    reads basic variable = rhs - sum_k t[1 + i, k] * nonbasic_k.  Variables
    0..m-1 are y, m + i is the slack of column i.

    Every solve starts at the optimum of the m axis rows alone, in closed
    form: y_j = scale / totals_j basic in row j, each axis slack nonbasic
    with dual scale / totals_j > 0.  That basis is dual feasible, and ``add``
    keeps it so: it writes the row c'y <= 1 of a new column in the current
    nonbasic variables, with its slack basic.  So only dual-simplex pivots
    are ever needed, under Bland's rule (smallest index leaves and enters),
    which terminates.  A pivot or two restores optimality after an add; if
    a re-solve fails, the tableau is rebuilt the same way from the axis
    start, every held row rewritten, then dual pivots.  One instance lives
    for one solve, at one scale; ``pivots`` counts its pivots, rebuilds
    included.
    """

    def __init__(self, totals: np.ndarray, scale: float):
        m = self.m = self.n = totals.size
        self.scale, self.pivots = scale, 0
        rows = max(_ROWS, 2 * m)
        self._c = np.empty((rows, m))
        self._c[:m] = np.diag(totals)
        self.columns = self._c[:m]
        self._t = np.empty((rows + 1, m + 1))
        self._row_var = np.empty(rows, dtype=np.intp)
        # a new column's value per variable: c_j / scale for y_j, 0 for
        # every slack
        self._value = np.zeros(m + rows)
        self._axis_start()

    def _axis_start(self) -> None:
        m, y = self.m, self.scale / self._c.diagonal()
        self._t[0, :m], self._t[0, m] = y, y.sum()
        self._t[1:m + 1] = np.column_stack([np.diag(y), y])
        self._col_var = np.arange(m, 2 * m)
        self._row_var[:m] = np.arange(m)

    def add(self, column: np.ndarray) -> None:
        """Hold one more column and re-solve from the current basis."""
        n, m = self.n, self.m
        if n == len(self._c):  # np.resize keeps the leading rows
            self._c = np.resize(self._c, (2 * n, m))
            self._t = np.resize(self._t, (2 * n + 1, m + 1))
            self._row_var = np.resize(self._row_var, 2 * n)
            self._value = np.zeros(m + 2 * n)
        self._c[n] = column
        self.n, self.columns = n + 1, self._c[:n + 1]
        self._write_row(n)
        if not self._solve(_WARM_PIVOTS):
            self._cold()

    def _write_row(self, i: int) -> None:
        """Write held column i as tableau row 1 + i, its slack basic: 1 -
        c'y, with each basic variable substituted from its row (the slack
        rows weigh 0)."""
        m, value, t = self.m, self._value, self._t
        np.divide(self._c[i], self.scale, out=value[:m])
        row = t[i + 1]
        np.take(value, self._col_var, out=row[:m])
        row[m] = 1.0
        row -= value[self._row_var[:i]] @ t[1:i + 1]
        self._row_var[i] = m + i

    def _cold(self) -> None:
        self._axis_start()
        for i in range(self.m, self.n):
            self._write_row(i)
        cap = _COLD_PIVOTS * (self.n + self.m)
        if not self._solve(cap):
            raise RuntimeError(f"master LP did not reach an optimum within "
                               f"{cap} pivots")

    def _solve(self, max_pivots: int) -> bool:
        """Dual-simplex pivots while a right-hand side is negative.  False if
        that takes more than ``max_pivots`` pivots, or on a rounding-lost
        bound."""
        m = self.m
        t = self._t[:self.n + 1]
        col_var, row_var = self._col_var, self._row_var[:self.n]
        for pivots in itertools.count():
            out = (t[1:, m] < -_PIVOT_TOL).nonzero()[0]
            if not out.size:
                return True
            r = out[row_var[out].argmin()]
            # the m-wide ratio test on Python floats
            top, row = t[0, :m].tolist(), t[1 + r, :m].tolist()
            ratio = {k: max(top[k], 0.0) / -row[k]
                     for k in range(m) if row[k] < -_PIVOT_TOL}
            # no ratio only by rounding, since y = 0 is feasible
            if not ratio or pivots == max_pivots:
                return False
            least = min(ratio.values()) + _PIVOT_TOL
            k = min((j for j, q in ratio.items() if q <= least),
                    key=col_var.tolist().__getitem__)
            self._pivot(1 + r, k)

    def _pivot(self, r: int, k: int) -> None:
        self.pivots += 1
        t = self._t[:self.n + 1]
        p = t[r, k]
        pivot_row = t[r] / p
        col = t[:, k].copy()
        t -= col[:, None] * pivot_row
        t[r] = pivot_row
        t[:, k] = -col / p
        t[r, k] = 1.0 / p
        self._col_var[k], self._row_var[r - 1] = (self._row_var[r - 1],
                                                  self._col_var[k])

    def tableau_solution(self) -> tuple[np.ndarray, np.ndarray]:
        """alpha and lambda as the tableau holds them, clipped at 0 and
        normalized onto the simplex: y_j is the right-hand side of its row
        where y_j is basic (else 0), and mu_i the row-0 entry of slack i
        where that slack is nonbasic (else 0).  Read on Python floats; the
        clip, the pairwise sum and the division give the bits of
        ``np.maximum(x, 0.0)``, ``.sum()`` and ``/``, NaN included."""
        n, m = self.n, self.m
        t = self._t
        y, mu = [0.0] * m, [0.0] * n
        for var, x in zip(self._row_var[:n].tolist(), t[1:n + 1, m].tolist()):
            if var < m:
                y[var] = 0.0 if x <= 0.0 else x
        for var, x in zip(self._col_var.tolist(), t[0, :m].tolist()):
            if var >= m:
                mu[var - m] = 0.0 if x <= 0.0 else x
        return (np.array(y) / _pairwise_sum(y),
                np.array(mu) / _pairwise_sum(mu))

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        """alpha = y / sum y and lambda = mu / sum mu, both on the simplex.

        The dual, min 1'mu s.t. C'mu >= 1, mu >= 0, has min(lambda C) = v =
        max(C alpha).  Both are solved from the basis: binding rows R and
        basic y_B give C[R, B] y_B = 1 and mu_R' C[R, B] = 1', so rounding
        that the tableau gathers over many pivots only picks the basis.
        """
        n, m = self.n, self.m
        row_var, col_var = self._row_var[:n], self._col_var
        basic = row_var[row_var < m]
        binding = col_var[col_var >= m] - m
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
    or after ``config.max_iterations`` master-LP iterations on both grids
    (not converged); the result's ``stop_reason`` says which.
    ``config.record_trace`` is not used.  The result carries the full-grid
    query point with the smallest g, and the held columns with their
    queries and lambda-mix ``shares``.
    """
    totals = problem.totals
    grid = _coarse_problem(problem)
    pvv = maxsum_partition(grid, np.full(problem.m, 1.0 / problem.m))
    best = pvv
    # every value vector is at most totals, up to summation order
    lp = _MasterLP(totals, totals.max())
    lp.add(pvv.u)
    held = {u.tobytes() for u in lp.columns}
    queries, coarse = [pvv.alpha], [grid is not problem]
    lb, stalled = -np.inf, False

    t = 0
    while True:
        # the bracket is tested on the bound of the LP that holds every
        # column so far, the newest one included
        alpha, lam = lp.tableau_solution()
        lb = max(lb, float((lam @ lp.columns).min()))
        width = best.g_value - lb
        # the coarse phase leaves the last iteration to the full grid
        reason = ("epsilon" if width < config.epsilon
                  else "exact" if width < _EXACT_STOP_TOL
                  else "stall" if stalled
                  else "max_iter"
                  if t >= config.max_iterations - (grid is not problem)
                  else None)
        if reason is not None and grid is not problem:
            # a coarse g bounds only the coarse value: certify at the best
            # coarse query on the full grid, and go on there
            grid, alpha, best, reason = problem, best.alpha, None, None
        if reason is not None:
            break
        pvv = maxsum_partition(grid, alpha)
        t += 1
        if best is None or pvv.g_value < best.g_value:
            best = pvv
        key = pvv.u.tobytes()
        stalled = key in held
        if not stalled:
            held.add(key)
            lp.add(pvv.u)
            queries.append(pvv.alpha)
            coarse.append(grid is not problem)

    # on an exact pinch (always so for m == 1) g and the bound sum the same
    # cells in different orders and may differ in the last bit
    return CuttingResult(lower=min(lb, best.g_value), upper=best.g_value,
                         pvv=best, iterations=t,
                         converged=reason in ("epsilon", "exact"),
                         problem=problem, columns=lp.columns,
                         queries=np.array(queries), coarse=np.array(coarse),
                         stop_reason=reason, pivots=lp.pivots, _master=lp)
