import numpy as np
import pytest

from fairdiv import (DensitySpec, Grid, SolverConfig, clipped_step,
                     lower_bound, maxsum_partition, solve_partition,
                     solve_value, update_alpha, weighted_problem)
from helpers import golden_section_min, random_problem


def test_clipped_step_no_active_constraint():
    # equal u pull no coordinate toward the boundary: the base step 0.5/(t+1)
    alpha = np.array([0.5, 0.5])
    u = np.array([0.3, 0.3])
    assert clipped_step(0, alpha, u) == 0.5
    assert clipped_step(3, alpha, u) == 0.125


def test_clipped_step_hand_example():
    # ubar = 0.5 and only u_1 is above it: tau = 0.9 * 0.1 / (1 - 0.5) = 0.18,
    # below the base step of 0.5
    s = clipped_step(0, np.array([0.1, 0.9]), np.array([1.0, 0.0]))
    assert s == pytest.approx(0.18, abs=1e-15)


def test_clipped_step_keeps_iterates_interior():
    rng = np.random.default_rng(17)
    for t in range(50):
        m = int(rng.integers(2, 6))
        alpha = rng.dirichlet(np.ones(m)) * 0.98 + 0.02 / m
        u = rng.uniform(0.0, 1.0, size=m)
        s = clipped_step(t, alpha, u)
        assert s > 0.0
        assert np.all(alpha - s * (u - u.mean()) > 0.0)


def test_update_alpha_fixed_point_on_equal_u():
    alpha = np.array([0.3, 0.7])
    out = update_alpha(alpha, np.array([0.4, 0.4]), 0.9)
    np.testing.assert_allclose(out, alpha, atol=1e-15)


def test_update_alpha_hand_example():
    out = update_alpha(np.array([0.5, 0.5]), np.array([0.8, 0.2]), 0.25)
    np.testing.assert_allclose(out, [0.425, 0.575], atol=1e-15)


def test_update_alpha_preserves_sum():
    rng = np.random.default_rng(23)
    for t in range(100):
        m = int(rng.integers(2, 6))
        alpha = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
        u = rng.uniform(0.0, 1.0, size=m)
        out = update_alpha(alpha, u, clipped_step(t, alpha, u))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0.0)


def test_update_alpha_rejects_oversized_step():
    with pytest.raises(RuntimeError):
        update_alpha(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 2.0)


def test_solver_config_validation():
    for epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=epsilon)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


def test_single_coalition_converges_immediately():
    problem = weighted_problem([DensitySpec.beta(2, 5)], [(0,)], [1.0],
                               Grid(64))
    res = solve_value(problem)
    assert res.converged and res.iterations == 0
    assert res.lower == pytest.approx(problem.totals[0], abs=1e-12)
    assert res.upper == pytest.approx(problem.totals[0], abs=1e-12)
    resp = solve_partition(problem)
    assert resp.converged and resp.pvv.spread == 0.0


def test_disjoint_supports_give_value_one():
    players = [DensitySpec.piecewise([0, 0.5, 1], [2, 0]),
               DensitySpec.piecewise([0, 0.5, 1], [0, 2])]
    problem = weighted_problem(players, [(0,), (1,)], [1.0, 1.0], Grid(32))
    res = solve_value(problem)
    assert res.converged
    assert res.lower == pytest.approx(1.0, abs=1e-12)
    assert res.upper == pytest.approx(1.0, abs=1e-12)


def test_five_player_competitive_bracket(competitive_problem):
    # reference value 0.403553 pinned by an independent LP solve of the
    # discretized assignment problem (stable from 1024 cells on)
    res = solve_value(competitive_problem, SolverConfig(epsilon=1e-3))
    assert res.converged
    assert res.width < 1e-3
    assert res.lower <= 0.403553 <= res.upper + 1e-6
    assert res.midpoint == pytest.approx(0.403553, abs=6e-4)


def test_five_player_equitable_partition(competitive_problem):
    res = solve_partition(competitive_problem, SolverConfig(epsilon=1e-3))
    assert res.converged
    assert res.pvv.spread < 1e-3
    assert np.all(res.pvv.u >= 0.2)
    # at an equitable stop the bracket is pinched inside the spread
    assert res.width < 1e-3


def test_mirrored_players_split_at_half():
    # mirror-symmetric pair: the equitable split is exact at the first step,
    # each side worth the Beta(2,5) mass of [0, 1/2] up to grid error
    players = [DensitySpec.beta(2, 5), DensitySpec.beta(5, 2)]
    problem = weighted_problem(players, [(0,), (1,)], [1.0, 1.0], Grid(1024))
    res = solve_partition(problem, SolverConfig(epsilon=1e-6))
    assert res.converged
    assert res.pvv.spread < 1e-12
    np.testing.assert_allclose(res.pvv.u, [0.890625, 0.890625], atol=1e-5)


def test_golden_section_oracle_two_coalitions():
    rng = np.random.default_rng(29)
    eps = 1e-2
    for _ in range(10):
        problem = random_problem(rng, max_players=3, max_m=2, cells=1024)
        if problem.m != 2:
            continue
        res = solve_value(problem, SolverConfig(epsilon=eps))
        assert res.converged

        def g_of(a):
            return maxsum_partition(problem, np.array([a, 1.0 - a])).g_value

        _, g_min = golden_section_min(g_of, 0.0, 1.0)
        assert abs(res.midpoint - g_min) <= 2 * eps


def test_trace_monotone_brackets_and_interior_iterates():
    rng = np.random.default_rng(31)
    for _ in range(10):
        problem = random_problem(rng, cells=128)
        config = SolverConfig(epsilon=5e-3, max_iterations=2000,
                              record_trace=True)
        res = solve_value(problem, config)
        tr = res.trace
        assert len(tr) >= 1
        assert np.all(np.diff([row.ub for row in tr]) <= 1e-15)
        assert np.all(np.diff([row.lb for row in tr]) >= -1e-15)
        for row in tr:
            assert row.lb <= row.ub + 1e-12
            assert np.all(row.alpha > 0.0)
            assert abs(row.alpha.sum() - 1.0) <= 1e-12


def test_certified_bracket_consistent_with_any_single_alpha():
    # every one-shot bound pair must be consistent with a reference bracket,
    # which certifiably contains the optimum
    rng = np.random.default_rng(37)
    for _ in range(10):
        problem = random_problem(rng, cells=64)
        ref = solve_value(problem, SolverConfig(epsilon=1e-6,
                                                max_iterations=3000))
        for _ in range(10):
            alpha = rng.dirichlet(np.ones(problem.m))
            alpha = np.maximum(alpha, 1e-9)
            pvv = maxsum_partition(problem, alpha / alpha.sum())
            assert lower_bound(pvv, problem.totals) <= ref.upper + 1e-12
            assert pvv.g_value >= ref.lower - 1e-12


def test_converged_partition_certifies_lower_bound(competitive_problem):
    # at spread below epsilon, the returned partition's worst coordinate
    # cannot sit more than epsilon under the certified lower bound
    eps = 1e-3
    res = solve_partition(competitive_problem, SolverConfig(epsilon=eps))
    assert res.converged
    assert res.pvv.u.min() >= res.lower - eps


def test_determinism():
    rng = np.random.default_rng(41)
    problem = random_problem(rng, cells=256)
    config = SolverConfig(epsilon=1e-3, max_iterations=3000, record_trace=True)
    a = solve_value(problem, config)
    b = solve_value(problem, config)
    assert a.lower == b.lower and a.upper == b.upper
    assert a.iterations == b.iterations
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert ra[:6] == rb[:6]
        np.testing.assert_array_equal(ra.alpha, rb.alpha)
        np.testing.assert_array_equal(ra.u, rb.u)


def test_unconverged_run_is_flagged(competitive_problem):
    res = solve_value(competitive_problem,
                      SolverConfig(epsilon=1e-9, max_iterations=50))
    assert not res.converged
    assert res.iterations == 50
    assert res.lower <= res.upper


def _numpy_clipped_step(t, alpha, u):
    """The paper's clipped step, base 0.5/(t+1) and clip factor 0.9, as numpy
    array arithmetic, for bitwise comparison."""
    s = 0.5 / (t + 1)
    ubar = u.mean()
    above = u > ubar
    if not above.any():
        return s
    tau = 0.9 * np.min(alpha[above] / (u[above] - ubar))
    return min(s, float(tau))


def _numpy_update_alpha(alpha, u, s):
    out = alpha - s * (u - u.mean())
    return out / out.sum()


def _step_cases(rng, m):
    """Random u, all-equal u, and u with a coordinate exactly at the mean
    (dyadic values symmetric about 1/2, so every summation order is exact)."""
    yield rng.uniform(0.0, 1.0, size=m)
    yield np.full(m, rng.uniform(0.0, 1.0))
    yield np.full(m, 0.1)
    offsets = rng.integers(1, 64, size=(m - 1) // 2) / 128.0
    yield rng.permutation(np.concatenate(
        [0.5 - offsets, 0.5 + offsets, [0.5] * (m - 2 * offsets.size)]))


def test_step_and_update_match_numpy_formulas_bitwise():
    rng = np.random.default_rng(43)
    for m in range(1, 13):
        for trial in range(100):
            t = int(rng.integers(0, 1000))
            alpha = rng.dirichlet(np.ones(m)) * 0.98 + 0.02 / m
            for u in _step_cases(rng, m):
                want = _numpy_clipped_step(t, alpha, u)
                for a, v in ((alpha, u), (alpha.tolist(), u.tolist())):
                    s = clipped_step(t, a, v)
                    assert s == want, (m, trial)
                    out = update_alpha(a, v, s)
                    np.testing.assert_array_equal(
                        out, _numpy_update_alpha(alpha, u, s))


def test_trace_reads_one_bound_per_iterate(monkeypatch):
    # the trace's vbar is the bound the iterate's bracket update used, not a
    # second evaluation
    calls = []

    def spy(pvv, totals):
        out = lower_bound(pvv, totals)
        calls.append((pvv.u, out))
        return out

    monkeypatch.setattr("fairdiv.subgradient.lower_bound", spy)
    rng = np.random.default_rng(47)
    for _ in range(5):
        problem = random_problem(rng, cells=128)
        calls.clear()
        res = solve_value(problem, SolverConfig(epsilon=1e-3,
                                                max_iterations=200,
                                                record_trace=True))
        tr = res.trace
        assert len(calls) == len(tr) == res.iterations + 1
        for (u, bound), row in zip(calls, tr):
            np.testing.assert_array_equal(u, row.u)
            assert row.vbar == bound <= row.lb
