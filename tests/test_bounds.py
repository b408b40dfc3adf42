import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (Grid, SolverConfig, lower_bound, maxsum_partition,
                     solve_partition)
from fairdiv.partition import _pairwise_sum
from fairdiv.partition import Allocation, PvvResult
from helpers import hull_lower_bound, random_alpha, random_problem


def make_pvv(u, g=None):
    u = np.asarray(u, dtype=float)
    m = len(u)
    alpha = np.full(m, 1.0 / m)
    if g is None:
        g = float(alpha @ u)
    alloc = Allocation(Grid(1), np.zeros(1, dtype=int))
    return PvvResult(alpha=alpha, allocation=alloc, u=u, g_value=g)


def test_equal_coordinates_give_the_value_itself():
    pvv = make_pvv([0.3, 0.3, 0.3])
    assert lower_bound(pvv, [1.0, 1.0, 1.0]) == pytest.approx(0.3, abs=1e-15)


def test_two_coalition_hand_example():
    # hand evaluation: 0.8 / (1 + (0.8 - 0.2)/1) = 0.5; the hull oracle
    # (segment from (0.8, 0.2) to (0, 1) meeting the diagonal) agrees
    pvv = make_pvv([0.8, 0.2])
    assert lower_bound(pvv, [1.0, 1.0]) == pytest.approx(0.5, abs=1e-12)
    assert hull_lower_bound([0.8, 0.2], [1.0, 1.0]) == pytest.approx(0.5)


def test_extreme_two_coalition_example():
    pvv = make_pvv([1.0, 0.0])
    assert lower_bound(pvv, [1.0, 1.0]) == pytest.approx(0.5, abs=1e-12)


def test_zero_total_rejected():
    with pytest.raises(ValueError):
        lower_bound(make_pvv([0.5, 0.2]), [1.0, 0.0])


def test_totals_shape_checked():
    with pytest.raises(ValueError):
        lower_bound(make_pvv([0.5, 0.2]), [1.0, 1.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(2, 3))
def test_hull_oracle_equivalence(data, m):
    totals = data.draw(st.lists(st.floats(0.2, 5.0), min_size=m, max_size=m))
    fracs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    u = np.asarray(totals) * np.asarray(fracs)
    got = lower_bound(make_pvv(u), totals)
    assert got == pytest.approx(hull_lower_bound(u, totals), abs=1e-10)


def test_prop_chain_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(50):
        problem = random_problem(rng, cells=128)
        pvv = maxsum_partition(problem, random_alpha(rng, problem.m))
        lo = lower_bound(pvv, problem.totals)
        assert pvv.u.min() - 1e-12 <= lo <= pvv.u.max() + 1e-12
        assert lo <= pvv.g_value + 1e-12


def test_tie_at_max_coordinate():
    # both coordinates maximal: formula must use either one (they are equal)
    pvv = make_pvv([0.4, 0.4])
    assert lower_bound(pvv, [0.9, 1.3]) == pytest.approx(0.4, abs=1e-15)


def test_tightness_near_equality(competitive_problem):
    # once the value vector is nearly equal, one maxsum result pins the value
    # to within a small multiple of the coordinate spread
    res = solve_partition(competitive_problem, SolverConfig(epsilon=1e-3))
    assert res.converged
    spread = res.pvv.spread
    width = res.pvv.g_value - lower_bound(res.pvv, competitive_problem.totals)
    assert width < 10 * spread


def _numpy_lower_bound(u, totals):
    """The closed form as numpy array arithmetic, for bitwise comparison."""
    h = int(np.argmax(u))
    rest = np.arange(len(u)) != h
    return float(u[h] / (1.0 + np.sum((u[h] - u[rest]) / totals[rest])))


def test_lower_bound_matches_numpy_formula_bitwise():
    # Python floats summed in numpy's pairwise order: bit for bit on every
    # m, past the 8 entries where numpy switches to strided partial sums;
    # ties in max(u) must still pick the lowest index
    rng = np.random.default_rng(29)
    for m in range(1, 13):
        for trial in range(300):
            totals = rng.uniform(0.05, 3.0, size=m)
            u = totals * rng.uniform(0.0, 1.0, size=m)
            if trial % 3 == 0 and m > 1:
                tied = rng.choice(m, size=int(rng.integers(2, m + 1)),
                                  replace=False)
                u[tied] = u.max()
            want = _numpy_lower_bound(u, totals)
            got = lower_bound(make_pvv(u), totals)
            assert type(got) is float
            assert got == want, (m, trial)


def test_pairwise_sum_matches_numpy():
    rng = np.random.default_rng(31)
    for n in [*range(0, 40), 127, 128, 129, 200, 1000, 4099]:
        for _ in range(20):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
            assert _pairwise_sum(x.tolist()) == np.add.reduce(x), n


@pytest.mark.parametrize("totals", [[1.0, float("nan")], [-1.0, 2.0]])
def test_invalid_totals_rejected(totals):
    with pytest.raises(ValueError):
        lower_bound(make_pvv([0.5, 0.2]), totals)
