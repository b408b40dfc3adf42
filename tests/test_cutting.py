from dataclasses import replace

import numpy as np
import pytest

from fairdiv import (DensitySpec, Grid, SolverConfig, cutting_plane_value,
                     lower_bound, maxsum_partition, weighted_problem)
from fairdiv.cutting import _ROWS, _MasterLP
from fairdiv.partition import _check_alpha
from helpers import (cell_lp_value, master_lp_value, random_density,
                     random_problem)

#: the cell LP runs under HiGHS's default tolerances
LP_TOL = 1e-7


def test_bracket_contains_cell_lp_value():
    rng = np.random.default_rng(201)
    eps = 1e-4
    converged = 0
    for _ in range(50):
        cells = int(rng.choice([8, 16, 32, 64]))
        problem = random_problem(rng, max_players=4, max_m=4, cells=cells)
        res = cutting_plane_value(problem, SolverConfig(epsilon=eps))
        value = cell_lp_value(problem)
        assert res.lower <= res.upper
        assert res.lower <= value + LP_TOL
        assert res.upper >= value - LP_TOL
        if res.converged:
            converged += 1
            assert res.width < eps
    assert converged >= 45


def test_shares_are_an_equitable_partition():
    # singleton problems, as behind pre-division weights: the lambda mix of
    # the held assignments splits every cell exactly, and its value vector
    # is equitable at the cell-LP value
    rng = np.random.default_rng(303)
    eps = 1e-9
    converged = 0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        cells = int(rng.choice([8, 16, 32, 64]))
        players = [random_density(rng) for _ in range(n)]
        problem = weighted_problem(players, [(i,) for i in range(n)],
                                   [1.0] * n, Grid(cells))
        res = cutting_plane_value(problem, SolverConfig(epsilon=eps))
        shares = res.shares
        assert (shares >= 0.0).all()
        assert np.abs(shares.sum(axis=0) - 1.0).max() <= 1e-12
        if res.converged:
            converged += 1
            values = (shares * problem.cell_values).sum(axis=1)
            assert values.max() - values.min() < 1e-12
            assert abs(values.mean() - cell_lp_value(problem)) <= eps
    assert converged >= 27


def test_bracket_matches_known_competitive_value(competitive_problem):
    # 0.4035535 is the cell-LP value of the bundled instance at 4096 cells
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-6))
    assert res.converged
    assert res.width < 1e-6
    assert res.lower <= 0.4035536 and res.upper >= 0.4035534
    assert res.upper == res.pvv.g_value


def test_exact_pinch_on_competitive_problem(competitive_problem):
    # the exact master LP keeps producing new columns until the bracket
    # closes to rounding, far below any epsilon a user would ask for
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-12))
    assert res.converged
    assert 0.0 <= res.width < 1e-12
    assert 0.4035534 <= res.lower <= res.upper <= 0.4035536


def test_pinch_below_epsilon_reads_exact(competitive_problem):
    # an epsilon below rounding: the solve stops at the exact pinch
    res = cutting_plane_value(competitive_problem,
                              SolverConfig(epsilon=1e-300))
    assert res.converged
    assert res.stop_reason == "exact"
    assert res.width < 1e-12
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-3))
    assert res.stop_reason == "epsilon"


def test_repeated_column_ends_unconverged(competitive_problem, monkeypatch):
    # an oracle that only returns a column already held: the master LP would
    # repeat itself, so the solver must stop rather than run to the cap
    first = maxsum_partition(competitive_problem, np.full(5, 0.2))
    monkeypatch.setattr("fairdiv.cutting.maxsum_partition",
                        lambda problem, alpha: first)
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-9))
    assert not res.converged
    assert res.stop_reason == "stall"
    assert res.iterations == 1
    assert res.lower <= res.upper


def test_held_axis_column_stalls(competitive_problem, monkeypatch):
    # the axis rows are held columns too: an oracle that returns the whole
    # cake's value to coalition 2 repeats the master LP just the same
    first = maxsum_partition(competitive_problem, np.full(5, 0.2))
    answers = iter([first, replace(first,
                                   u=np.diag(competitive_problem.totals)[2])])
    monkeypatch.setattr("fairdiv.cutting.maxsum_partition",
                        lambda problem, alpha: next(answers))
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-9))
    assert not res.converged
    assert res.stop_reason == "stall"
    assert res.iterations == 1
    assert len(res.columns) == 6


def test_iteration_cap():
    players = [DensitySpec.beta(2, 5), DensitySpec.beta(7, 2),
               DensitySpec.uniform()]
    problem = weighted_problem(players, [(0,), (1,), (2,)], [1.0] * 3,
                               Grid(256))
    res = cutting_plane_value(problem, SolverConfig(epsilon=1e-9,
                                                    max_iterations=3))
    assert not res.converged
    assert res.stop_reason == "max_iter"
    assert res.iterations == 3
    assert res.lower <= res.upper


def test_single_coalition_stops_at_once():
    problem = weighted_problem([DensitySpec.beta(2, 5)], [(0,)], [2.0],
                               Grid(64))
    res = cutting_plane_value(problem)
    assert res.converged
    assert res.iterations == 0
    # the whole cake, in the solver's discretization, at weight 2
    assert res.upper == pytest.approx(problem.totals[0], abs=1e-15)
    assert res.lower == pytest.approx(res.upper, abs=1e-15)
    assert res.upper == pytest.approx(0.5, abs=1e-3)


def test_deterministic(competitive_problem):
    a = cutting_plane_value(competitive_problem)
    b = cutting_plane_value(competitive_problem)
    assert (a.lower, a.upper, a.iterations) == (b.lower, b.upper,
                                                b.iterations)


def _master_lp_cases():
    """Random nonnegative column sets, the m axis rows first: plain, with
    duplicate columns, with all-zero rows, and on a coarse lattice (ties).
    Each comes with a row order that mixes the axis rows in."""
    rng = np.random.default_rng(404)
    for k in range(400):
        m = 1 if k % 10 == 0 else int(rng.integers(2, 9))
        totals = rng.uniform(0.05, 2.0, m)
        held = rng.uniform(0.0, 1.0, (int(rng.integers(0, 40)), m)) * totals
        if k % 4 == 1 and len(held):
            held = np.vstack([held, held[rng.integers(0, len(held), 3)]])
        elif k % 4 == 2:
            held = np.vstack([held, np.zeros((2, m))])
        elif k % 4 == 3:
            totals = np.round(totals * 4) / 4 + 0.25
            held = np.round(held * 4) / 4
        columns = np.vstack([np.diag(totals), held])
        yield columns, rng.permutation(len(columns))


def _assert_master_optimal(lp):
    """Both the tableau read (the loop's alpha and lambda) and the basis
    re-solve (the final lambda) are on the simplex and optimal."""
    columns = lp.columns
    value = master_lp_value(columns)
    for alpha, lam in (lp.tableau_solution(), lp.solution()):
        for w in (alpha, lam):
            _check_alpha(w, len(w))
        # max(C alpha) >= v >= min(lambda C): equal, both are optimal
        upper = (columns @ alpha).max()
        lower = (lam @ columns).min()
        assert upper - lower <= 1e-12 * upper
        assert upper == pytest.approx(value, abs=1e-9)


def _assert_warm_optimal(columns):
    """Start from the axis rows and add the other rows one at a time; the
    warm tableau must be optimal after every add."""
    m = columns.shape[1]
    lp = _MasterLP(np.diagonal(columns), columns[:m].max())
    for i in range(m, len(columns)):
        lp.add(columns[i])
        _assert_master_optimal(lp)


def test_master_lp_is_optimal():
    # every row of a case, the axis rows again among them, joins in the
    # case's permuted order; the tableau is then rebuilt from the axis start
    for columns, order in _master_lp_cases():
        lp = _MasterLP(np.diagonal(columns), columns.max())
        for row in columns[order]:
            lp.add(row)
        _assert_master_optimal(lp)
        lp._cold()
        _assert_master_optimal(lp)


def test_master_lp_grows_past_its_initial_storage():
    # more held columns than ``_ROWS``: the storage doubles twice, and the
    # warm tableau and its cold rebuild stay optimal
    rng = np.random.default_rng(909)
    totals = rng.uniform(0.5, 2.0, 4)
    lp = _MasterLP(totals, totals.max())
    start = len(lp._c)
    for _ in range(3 * _ROWS):
        lp.add(rng.uniform(0.0, 1.0, 4) * totals)
    assert start == _ROWS < 2 * _ROWS < lp.n <= len(lp._c) == 4 * _ROWS
    _assert_master_optimal(lp)
    lp._cold()
    _assert_master_optimal(lp)


def _array_tableau_solution(lp):
    """``tableau_solution`` in numpy arrays, as the float read must give
    it bit for bit."""
    n, m, t = lp.n, lp.m, lp._t
    primal = np.zeros(m + n)
    primal[lp._row_var[:n]] = t[1:n + 1, m]
    dual = np.zeros(m + n)
    dual[lp._col_var] = t[0, :m]
    y = np.maximum(primal[:m], 0.0)
    mu = np.maximum(dual[m:], 0.0)
    return y / y.sum(), mu / mu.sum()


def _assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_tableau_read_matches_its_array_form():
    for columns, order in _master_lp_cases():
        lp = _MasterLP(np.diagonal(columns), columns.max())
        for row in columns[order]:
            lp.add(row)
            _assert_same_bits(lp.tableau_solution(),
                              _array_tableau_solution(lp))


def test_tableau_read_keeps_nan_and_clips_negative_zero():
    # at the axis start every y_j is basic in row j and every slack is
    # nonbasic in row 0; a NaN goes through the clip, as in np.maximum,
    # and -0.0 clips to +0.0
    lp = _MasterLP(np.array([1.0, 2.0, 4.0]), 4.0)
    lp._t[1, 3] = -0.0
    lp._t[0, 1] = -0.0
    _assert_same_bits(lp.tableau_solution(), _array_tableau_solution(lp))
    assert not np.signbit(lp.tableau_solution()[0]).any()
    lp._t[2, 3] = np.nan
    lp._t[0, 2] = np.nan
    alpha, lam = lp.tableau_solution()
    assert np.isnan(alpha).all() and np.isnan(lam).all()
    want = _array_tableau_solution(lp)
    assert np.isnan(want[0]).all() and np.isnan(want[1]).all()


def test_first_master_lp_bounds_above_the_diagonal_bound():
    # the master LP over the axis points and the first value vector bounds
    # at least as high as that vector's closed-form diagonal bound, so the
    # solver needs no other lower bound; the first value vector is either
    # the uniform query's or an axis point
    rng = np.random.default_rng(808)
    for m in range(1, 9):
        for k in range(10):
            n = m + int(rng.integers(0, 3))
            owners = rng.integers(0, m, size=n)
            owners[rng.permutation(n)[:m]] = np.arange(m)
            structure = [tuple(np.flatnonzero(owners == j)) for j in range(m)]
            problem = weighted_problem(
                [random_density(rng) for _ in range(n)], structure,
                rng.uniform(0.5, 3.0, m).tolist(), Grid(64))
            totals = problem.totals
            pvv = maxsum_partition(problem, np.full(m, 1.0 / m))
            if k % 3 == 2:
                pvv = replace(pvv, u=np.diag(totals)[rng.integers(0, m)])
            lp = _MasterLP(totals, totals.max())
            lp.add(pvv.u)
            _, lam = lp.tableau_solution()
            diagonal = lower_bound(pvv, totals)
            assert (lam @ lp.columns).min() >= diagonal * (1.0 - 1e-12)


def test_warm_master_lp_is_optimal():
    for columns, _ in _master_lp_cases():
        _assert_warm_optimal(columns)


def test_warm_master_lp_on_solver_iterations():
    # the LP of every iteration of seeded solves, as the loop builds them
    rng = np.random.default_rng(505)
    for _ in range(20):
        problem = random_problem(rng, max_players=5, max_m=5, cells=64)
        res = cutting_plane_value(problem, SolverConfig(epsilon=1e-9))
        _assert_warm_optimal(res.columns)


def _count_pivots(monkeypatch) -> list[int]:
    count = [0]
    pivot = _MasterLP._pivot

    def counted(self, r, k):
        count[0] += 1
        pivot(self, r, k)

    monkeypatch.setattr(_MasterLP, "_pivot", counted)
    return count


def test_warm_start_pivot_count(competitive_problem, monkeypatch):
    # the pre-solve behind pre-division weights (63 iterations) takes 76
    # dual pivots from the axis start, each value vector added to the held
    # tableau (79 when the first one joined a slack-basis start solved by
    # primal pivots); solving every master LP cold from the slack basis
    # took 1,293 over its 64 iterations (1,326 with the extra LP that
    # ``shares`` then solved)
    count = _count_pivots(monkeypatch)
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-9))
    assert res.converged
    assert count[0] <= 100


def test_result_counts_pivots(competitive_problem, monkeypatch):
    count = _count_pivots(monkeypatch)
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-9))
    assert res.pivots == count[0] > 0


def test_cold_rebuild_matches_warm(competitive_problem, monkeypatch):
    # with no warm pivots allowed, every add that needs a pivot rebuilds
    # the tableau from the axis start; the bracket and the partition agree
    # with the warm solve (the pinched master LP is degenerate, so the two
    # may pick other optimal bases: lambda itself, the last bits of the
    # bracket and the iteration count may differ)
    config = SolverConfig(epsilon=1e-9)
    warm = cutting_plane_value(competitive_problem, config)
    count = _count_pivots(monkeypatch)
    monkeypatch.setattr("fairdiv.cutting._WARM_PIVOTS", 0)
    cold = cutting_plane_value(competitive_problem, config)
    assert count[0] > 1000
    assert cold.converged and warm.converged
    assert cold.lower == pytest.approx(warm.lower, abs=1e-15)
    assert cold.upper == pytest.approx(warm.upper, abs=1e-15)
    assert np.abs(cold.shares - warm.shares).max() <= 1e-9


def test_no_state_outlives_a_solve(competitive_problem):
    other = weighted_problem(
        [DensitySpec.beta(2, 5), DensitySpec.beta(7, 2),
         DensitySpec.uniform()], [(0, 2), (1,)], [2.0, 1.0], Grid(256))
    config = SolverConfig(epsilon=1e-9)
    first = cutting_plane_value(competitive_problem, config)
    cutting_plane_value(other, config)
    again = cutting_plane_value(competitive_problem, config)
    assert (first.lower, first.upper, first.iterations) == (
        again.lower, again.upper, again.iterations)
    assert np.array_equal(first.pvv.alpha, again.pvv.alpha)
    assert np.array_equal(first.shares, again.shares)


def test_no_query_once_the_held_columns_close_the_bracket(monkeypatch):
    # before every query past the first, the master LP over every column
    # returned so far (HiGHS, independent of the solver's tableau) must
    # still leave the bracket [LP value, smallest g] at least epsilon wide
    rng = np.random.default_rng(707)
    for _ in range(12):
        problem = random_problem(rng, max_players=5, max_m=5, cells=128)
        eps = float(rng.choice([1e-2, 1e-3, 1e-4]))
        columns, best = [np.diag(problem.totals)], [np.inf]

        def spy(problem, alpha):
            if len(columns) > 1:
                width = best[0] - master_lp_value(np.vstack(columns))
                assert width >= eps - LP_TOL, "query after the bracket closed"
            pvv = maxsum_partition(problem, alpha)
            columns.append(pvv.u[None, :])
            best[0] = min(best[0], pvv.g_value)
            return pvv

        monkeypatch.setattr("fairdiv.cutting.maxsum_partition", spy)
        res = cutting_plane_value(problem, SolverConfig(epsilon=eps))
        assert res.converged
