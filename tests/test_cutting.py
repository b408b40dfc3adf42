import numpy as np
import pytest

from fairdiv import (DensitySpec, Grid, SolverConfig, cutting_plane_value,
                     weighted_problem)
from helpers import cell_lp_value, random_problem

#: the cell LP and the master LP both run under HiGHS's default tolerances
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


def test_bracket_matches_known_competitive_value(competitive_problem):
    # 0.4035535 is the cell-LP value of the bundled instance at 4096 cells
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-6))
    assert res.converged
    assert res.width < 1e-6
    assert res.lower <= 0.4035536 and res.upper >= 0.4035534
    assert res.upper == res.pvv.g_value


def test_stall_ends_unconverged(competitive_problem):
    # below the master LP's tolerance the oracle starts returning columns it
    # already holds; the solver must stop there rather than run to the cap
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-12))
    assert not res.converged
    assert res.iterations < 500
    assert 0.0 <= res.width < 1e-6


def test_iteration_cap():
    players = [DensitySpec.beta(2, 5), DensitySpec.beta(7, 2),
               DensitySpec.uniform()]
    problem = weighted_problem(players, [(0,), (1,), (2,)], [1.0] * 3,
                               Grid(256))
    res = cutting_plane_value(problem, SolverConfig(epsilon=1e-9,
                                                    max_iterations=3))
    assert not res.converged
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
