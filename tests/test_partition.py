import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (DensitySpec, Grid, WeightedProblem, coalition_table,
                     maxsum_partition, weighted_problem)
from fairdiv.partition import Allocation
from helpers import (argmax_maxsum, brute_force_maxsum, random_alpha,
                     random_problem)


def alphas(m):
    return st.lists(st.floats(0.01, 10.0), min_size=m, max_size=m).map(
        lambda xs: np.asarray(xs) / np.sum(xs))


@pytest.fixture(scope="module")
def two_coalition_problem():
    players = [DensitySpec.beta(2, 5), DensitySpec.uniform(),
               DensitySpec.beta(7, 2)]
    return weighted_problem(players, [(0, 2), (1,)], [2.0, 1.0], Grid(512))


def test_single_coalition_takes_everything():
    problem = weighted_problem([DensitySpec.beta(3, 8)], [(0,)], [1.0],
                               Grid(128))
    res = maxsum_partition(problem, [1.0])
    assert np.all(res.allocation.assignment == 0)
    assert res.u[0] == pytest.approx(problem.totals[0], abs=1e-15)
    assert res.g_value == pytest.approx(problem.totals[0], abs=1e-12)


def test_five_player_uniform_alpha_g(competitive_problem):
    # with equal coefficients the cell max is max_i f_i / 5, so g is the
    # grand-coalition value over 5; the reported table value is 2.477
    g = maxsum_partition(competitive_problem, np.full(5, 0.2)).g_value
    assert g == pytest.approx(2.477 / 5, abs=5e-4)


def test_tie_break_goes_to_lowest_index():
    players = [DensitySpec.beta(4, 4), DensitySpec.beta(4, 4)]
    problem = weighted_problem(players, [(0,), (1,)], [1.0, 1.0], Grid(64))
    res = maxsum_partition(problem, [0.5, 0.5])
    assert np.all(res.allocation.assignment == 0)
    assert res.u[1] == 0.0
    assert res.u[0] == pytest.approx(problem.totals[0], abs=1e-15)


def test_vertex_alpha_gives_coalition_total(two_coalition_problem):
    for j in range(2):
        alpha = np.zeros(2)
        alpha[j] = 1.0
        g = maxsum_partition(two_coalition_problem, alpha).g_value
        assert g == pytest.approx(two_coalition_problem.totals[j], abs=1e-12)


def test_alpha_validation(two_coalition_problem):
    with pytest.raises(ValueError):
        maxsum_partition(two_coalition_problem, [0.7, 0.2])  # sum != 1
    with pytest.raises(ValueError):
        maxsum_partition(two_coalition_problem, [1.2, -0.2])
    with pytest.raises(ValueError):
        maxsum_partition(two_coalition_problem, [1.0])  # wrong size
    # a NaN in any position fails ``x >= 0``, as it fails ``a.min() >= 0``
    for alpha in ([float("nan"), 1.0], [1.0, float("nan")]):
        with pytest.raises(ValueError, match="nonnegative"):
            maxsum_partition(two_coalition_problem, alpha)


@settings(max_examples=60, deadline=None)
@given(alpha=alphas(2))
def test_support_identity(two_coalition_problem, alpha):
    res = maxsum_partition(two_coalition_problem, alpha)
    assert res.g_value == pytest.approx(float(alpha @ res.u), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(alpha=alphas(2), beta=alphas(2))
def test_subgradient_inequality(two_coalition_problem, alpha, beta):
    res_a = maxsum_partition(two_coalition_problem, alpha)
    g_b = maxsum_partition(two_coalition_problem, beta).g_value
    assert g_b - res_a.g_value >= float(res_a.u @ (beta - alpha)) - 1e-9


@settings(max_examples=60, deadline=None)
@given(alpha=alphas(2), beta=alphas(2))
def test_midpoint_convexity(two_coalition_problem, alpha, beta):
    def g(a):
        return maxsum_partition(two_coalition_problem, a).g_value

    assert g(0.5 * (alpha + beta)) <= 0.5 * (g(alpha) + g(beta)) + 1e-9


@settings(max_examples=60, deadline=None)
@given(alpha=alphas(2))
def test_value_vector_bounds(two_coalition_problem, alpha):
    res = maxsum_partition(two_coalition_problem, alpha)
    assert np.all(res.u >= 0.0)
    assert np.all(res.u <= two_coalition_problem.totals + 1e-12)
    assert res.u.min() - 1e-12 <= res.g_value <= res.u.max() + 1e-12


def test_brute_force_oracle_small_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        problem = random_problem(rng, max_players=3, max_m=3, cells=8)
        alpha = random_alpha(rng, problem.m)
        res = maxsum_partition(problem, alpha)
        assert res.g_value == brute_force_maxsum(problem, alpha)


def _assert_matches_argmax(problem, alpha):
    res = maxsum_partition(problem, alpha)
    assignment, g, u = argmax_maxsum(problem, alpha)
    assert np.array_equal(res.allocation.assignment, assignment)
    assert res.g_value == g
    assert np.array_equal(res.u, u)


@pytest.mark.parametrize("seed", range(12))
def test_running_max_matches_argmax_referee(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, max_players=6, max_m=5, cells=512)
    for _ in range(8):
        _assert_matches_argmax(problem, random_alpha(rng, problem.m))


def test_running_max_matches_argmax_one_coalition():
    players = [DensitySpec.beta(0.7, 3.0), DensitySpec.uniform()]
    problem = weighted_problem(players, [(0, 1)], [1.7], Grid(300))
    _assert_matches_argmax(problem, [1.0])


def test_running_max_matches_argmax_zero_alpha_components():
    # piecewise zeros make zero scores tie with the zeroed coalitions
    players = [DensitySpec.piecewise([0, 0.3, 1], [0, 1 / 0.7]),
               DensitySpec.beta(2, 5), DensitySpec.uniform(),
               DensitySpec.piecewise([0, 0.6, 1], [1 / 0.6, 0])]
    problem = weighted_problem(players, [(0,), (1,), (2,), (3,)],
                               [1.0, 2.0, 0.5, 1.0], Grid(256))
    for alpha in ([0.0, 0.5, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.3, 0.7, 0.0]):
        _assert_matches_argmax(problem, alpha)


def test_running_max_matches_argmax_lattice_ties():
    # identical rows, and weights and alphas that scale them by powers of
    # two, so every score of a cell is the same float
    players = [DensitySpec.beta(4, 4)] * 3 + [DensitySpec.uniform()] * 2
    problem = weighted_problem(players, [(0,), (1,), (2,)], [1.0, 2.0, 1.0],
                               Grid(128))
    _assert_matches_argmax(problem, [0.25, 0.5, 0.25])
    flat = weighted_problem(players, [(3,), (4,)], [1.0, 1.0], Grid(64))
    for alpha in ([0.5, 0.5], [0.25, 0.75], [0.75, 0.25]):
        _assert_matches_argmax(flat, alpha)
    res = maxsum_partition(problem, [0.25, 0.5, 0.25])
    assert np.all(res.allocation.assignment == 0)


def test_weight_scaling_invariance():
    rng = np.random.default_rng(3)
    for c in (0.5, 2.0, 7.3):
        problem = random_problem(rng, cells=128)
        scaled = WeightedProblem(
            structure=problem.structure,
            weights=tuple(c * w for w in problem.weights),
            table=problem.table)
        alpha = random_alpha(rng, problem.m)
        res = maxsum_partition(problem, alpha)
        res_c = maxsum_partition(scaled, alpha)
        np.testing.assert_array_equal(res.allocation.assignment,
                                      res_c.allocation.assignment)
        np.testing.assert_allclose(res_c.u, res.u / c, atol=1e-12)
        assert res_c.g_value == pytest.approx(res.g_value / c, abs=1e-12)


def test_overlapping_coalitions_rejected(five_players):
    with pytest.raises(ValueError):
        weighted_problem(five_players, [(0, 1), (1, 2)], [1.0, 1.0], Grid(16))


def test_nonpositive_weight_rejected(five_players):
    with pytest.raises(ValueError):
        weighted_problem(five_players, [(0,), (1,)], [1.0, 0.0], Grid(16))


@pytest.mark.parametrize("structure, weights, message", [
    ((), (), "need at least one coalition"),
    (((0,),), (1.0, 2.0), "one weight per coalition required"),
    (((1,),), (1.0,), "table rows must match the coalition structure"),
])
def test_weighted_problem_rejections(five_players, structure, weights,
                                     message):
    table = coalition_table(five_players, [(0,)], Grid(16))
    with pytest.raises(ValueError, match=message):
        WeightedProblem(structure=structure, weights=weights, table=table)


def test_allocation_intervals_merge():
    players = [DensitySpec.piecewise([0, 0.5, 1], [2, 0]),
               DensitySpec.piecewise([0, 0.5, 1], [0, 2])]
    problem = weighted_problem(players, [(0,), (1,)], [1.0, 1.0], Grid(8))
    res = maxsum_partition(problem, [0.5, 0.5])
    assert res.allocation.intervals() == {0: [(0.0, 0.5)], 1: [(0.5, 1.0)]}


@pytest.mark.parametrize("seed", range(20))
def test_allocation_intervals_rebuild_assignment(seed):
    rng = np.random.default_rng(seed)
    cells = 1 if seed == 0 else int(rng.integers(1, 300))
    owners = 1 if seed == 1 else int(rng.integers(1, 5))
    # runs of random length, so neighbouring cells often share an owner
    assignment = np.repeat(rng.integers(0, owners, size=cells),
                           rng.integers(1, 6, size=cells))[:cells]
    grid = Grid(cells)
    spans = Allocation(grid, assignment).intervals()

    assert list(spans) == list(dict.fromkeys(assignment.tolist()))
    rebuilt = np.full(cells, -1)
    for j, runs in spans.items():
        for (a0, b0), (a1, _) in zip(runs, runs[1:]):
            assert b0 < a1  # merged: no two runs of one owner touch
        for a, b in runs:
            lo, hi = np.searchsorted(grid.edges, [a, b])
            assert grid.edges[lo] == a and grid.edges[hi] == b
            rebuilt[lo:hi] = j
    np.testing.assert_array_equal(rebuilt, assignment)
