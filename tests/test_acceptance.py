"""Acceptance suite: reproduces the reference tables for the bundled
five-player example and runs the instance-independent property checks,
printing one PASS/FAIL line per criterion.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import time

import numpy as np
import pytest

from fairdiv import (Grid, SolverConfig, WeightedProblem, cardinality_weights,
                     full_game, lower_bound, maxsum_partition,
                     pre_division_weights, shapley, solve_partition,
                     solve_value)
from fairdiv.coalitions import default_game_config
from helpers import (brute_force_maxsum, golden_section_min, random_alpha,
                     random_problem)

# reference game values for the bundled instance; players are 0-based here
GAME_TABLE_ROWS = {
    (0,): (0.404, 0.404), (1,): (0.404, 0.404), (2,): (0.404, 0.404),
    (3,): (0.404, 0.404), (4,): (0.404, 0.404),
    (0, 1): (0.822, 0.842), (0, 2): (0.835, 0.836), (0, 3): (0.844, 0.861),
    (0, 4): (0.819, 0.827), (1, 2): (0.820, 0.820), (1, 3): (0.826, 0.826),
    (1, 4): (0.828, 0.833), (2, 3): (0.808, 0.808), (2, 4): (0.926, 1.040),
    (3, 4): (0.886, 1.004),
    (0, 1, 2): (1.262, 1.280), (0, 1, 3): (1.273, 1.302),
    (0, 1, 4): (1.256, 1.265), (0, 2, 3): (1.275, 1.289),
    (0, 2, 4): (1.392, 1.465), (0, 3, 4): (1.366, 1.427),
    (1, 2, 3): (1.242, 1.241), (1, 2, 4): (1.389, 1.474),
    (1, 3, 4): (1.349, 1.414), (2, 3, 4): (1.403, 1.625),
    (0, 1, 2, 3): (1.706, 1.727), (0, 1, 2, 4): (1.877, 1.903),
    (0, 1, 3, 4): (1.841, 1.862), (0, 2, 3, 4): (1.968, 2.044),
    (1, 2, 3, 4): (1.940, 2.032),
    (0, 1, 2, 3, 4): (2.477, 2.477),
}

SHAPLEY_CARD = (0.465, 0.451, 0.507, 0.491, 0.563)
SHAPLEY_PRE = (0.436, 0.425, 0.519, 0.502, 0.594)
SHAPLEY_RANKING = (4, 2, 3, 0, 1)  # players 5 > 3 > 4 > 1 > 2, 0-based


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def game_tables(five_players):
    """Both weight systems' full games at 4096 cells, timed."""
    start = time.perf_counter()
    pre = pre_division_weights(five_players)
    tables = {
        "card": full_game(five_players, cardinality_weights(),
                          config=default_game_config()),
        "pre": full_game(five_players, pre,
                         config=default_game_config()),
    }
    elapsed = time.perf_counter() - start
    return tables, elapsed


def test_criterion_1_competitive_value(competitive_problem):
    start = time.perf_counter()
    res = solve_value(competitive_problem, SolverConfig(epsilon=1e-3))
    elapsed = time.perf_counter() - start
    # the reference 0.404 carries three decimals; the certified optimum is
    # 0.403553 (independent LP check), so the bracket must meet the
    # reference value's rounding interval [0.4035, 0.4045]
    ok = (res.converged and res.width < 1e-3
          and res.lower <= 0.4045 and res.upper >= 0.4035
          and elapsed < 5.0)
    report("criterion 1",
           ok,
           f"bracket [{res.lower:.6f}, {res.upper:.6f}] width "
           f"{res.width:.2e} around reference 0.404 in {elapsed:.2f}s "
           f"({res.iterations} iterations)")


def test_criterion_2_grand_coalition_mass(table_4096):
    grand = float(table_4096.mass_row(range(5)).sum())
    ok = abs(grand - 2.477) <= 2e-3
    report("criterion 2", ok, f"mu_N(C) = {grand:.6f} vs reference 2.477")


def test_criterion_3_game_table(game_tables):
    tables, elapsed = game_tables
    worst = {"card": 0.0, "pre": 0.0}
    for s, (want_card, want_pre) in GAME_TABLE_ROWS.items():
        got_card = tables["card"].value(s)
        got_pre = tables["pre"].value(s)
        worst["card"] = max(worst["card"], abs(got_card - want_card))
        worst["pre"] = max(worst["pre"], abs(got_pre - want_pre))
    converged = all(t.all_converged for t in tables.values())
    ok = (worst["card"] <= 5e-3 and worst["pre"] <= 5e-3 and converged
          and elapsed < 180.0)
    report("criterion 3",
           ok,
           f"27 reference rows, max |diff| card {worst['card']:.2e}, "
           f"pre {worst['pre']:.2e}, all converged: {converged}, "
           f"{elapsed:.1f}s")


def test_criterion_4_shapley(game_tables):
    tables, _ = game_tables
    results = {name: shapley(t) for name, t in tables.items()}
    worst = 0.0
    for name, want in (("card", SHAPLEY_CARD), ("pre", SHAPLEY_PRE)):
        worst = max(worst, float(np.max(np.abs(results[name].values
                                               - np.asarray(want)))))
    rankings_ok = all(results[name].ranking == SHAPLEY_RANKING
                      for name in ("card", "pre"))
    eta_n = {name: tables[name].value(range(5)) for name in tables}
    efficiency = max(abs(results[name].values.sum() - eta_n[name])
                     for name in tables)
    ok = worst <= 1e-2 and rankings_ok and efficiency <= 5e-3
    report("criterion 4",
           ok,
           f"max |phi diff| {worst:.2e}, ranking 5>3>4>1>2 both systems: "
           f"{rankings_ok}, |sum phi - eta(N)| <= {efficiency:.2e}")


def test_criterion_5_dominance(game_tables):
    tables, _ = game_tables
    slack = 0.0
    for s in GAME_TABLE_ROWS:
        slack = max(slack, tables["card"].value(s) - tables["pre"].value(s))
    boundary_gap = max(
        abs(tables["card"].value(s) - tables["pre"].value(s))
        for s in GAME_TABLE_ROWS if len(s) in (1, 5))
    ok = slack <= 2e-3 and boundary_gap <= 2e-3
    report("criterion 5",
           ok,
           f"eta_card - eta_pre <= {slack:.2e} over 27 coalitions, "
           f"singleton/grand gap {boundary_gap:.2e}")


def test_criterion_6a_subgradient_inequality():
    rng = np.random.default_rng(101)
    worst = -np.inf
    for _ in range(100):
        problem = random_problem(rng, cells=256)
        alpha = random_alpha(rng, problem.m)
        beta = random_alpha(rng, problem.m)
        res = maxsum_partition(problem, alpha)
        gap = (maxsum_partition(problem, beta).g_value - res.g_value
               - float(res.u @ (beta - alpha)))
        worst = max(worst, -gap)
    ok = worst <= 1e-9
    report("criterion 6a", ok,
           f"subgradient inequality, 100 trials, worst violation {worst:.2e}")


def test_criterion_6b_support_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        problem = random_problem(rng, cells=256)
        alpha = random_alpha(rng, problem.m)
        res = maxsum_partition(problem, alpha)
        worst = max(worst, abs(res.g_value - float(alpha @ res.u)))
    ok = worst <= 1e-9
    report("criterion 6b", ok,
           f"support identity, 100 trials, worst |g - <alpha,u>| {worst:.2e}")


def test_criterion_6c_bound_chain():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        problem = random_problem(rng, cells=256)
        res = maxsum_partition(problem, random_alpha(rng, problem.m))
        lo = lower_bound(res, problem.totals)
        hi = res.g_value
        ok &= (res.u.min() - 1e-12 <= lo <= hi + 1e-12
               and hi <= res.u.max() + 1e-12)
    report("criterion 6c", ok,
           "min u <= lower <= g <= max u held on 100 trials")


def test_criterion_6d_trace_invariants():
    rng = np.random.default_rng(104)
    ok = True
    for i in range(100):
        problem = random_problem(rng, cells=128)
        config = SolverConfig(epsilon=5e-3, max_iterations=2000,
                              record_trace=True)
        solve = solve_value if i % 2 == 0 else solve_partition
        tr = solve(problem, config).trace
        ok &= bool(np.all(np.diff([row.ub for row in tr]) <= 1e-15))
        ok &= bool(np.all(np.diff([row.lb for row in tr]) >= -1e-15))
        ok &= all(row.lb <= row.ub + 1e-12 for row in tr)
        ok &= all(np.all(row.alpha > 0) and abs(row.alpha.sum() - 1) <= 1e-12
                  for row in tr)
    report("criterion 6d", ok,
           "iterate interiority and bracket monotonicity on 100 traces")


def test_criterion_6e_brute_force_oracle():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        problem = random_problem(rng, max_players=3, max_m=3, cells=8)
        alpha = random_alpha(rng, problem.m)
        res = maxsum_partition(problem, alpha)
        ok &= res.g_value == brute_force_maxsum(problem, alpha)
    report("criterion 6e", ok,
           "maxsum equals exhaustive assignment search exactly, 100 trials")


def test_criterion_6f_golden_section_oracle():
    # epsilon must sit above the bracket's stall floor for structures whose
    # optimum hugs a simplex vertex; 2048 cells and 1e-2 leave a 2x margin
    rng = np.random.default_rng(106)
    eps = 1e-2
    worst = 0.0
    count = 0
    while count < 100:
        problem = random_problem(rng, max_players=4, max_m=2, cells=2048)
        if problem.m != 2:
            continue
        count += 1
        res = solve_value(problem, SolverConfig(epsilon=eps,
                                                max_iterations=20000))

        def g_of(a, problem=problem):
            return maxsum_partition(problem, np.array([a, 1.0 - a])).g_value

        _, g_min = golden_section_min(g_of, 0.0, 1.0)
        worst = max(worst, abs(res.midpoint - g_min))
    ok = worst <= 2 * eps
    report("criterion 6f", ok,
           f"two-coalition golden-section oracle, 100 trials, worst "
           f"|midpoint - min g| {worst:.2e} <= {2 * eps}")


def test_criterion_6g_weight_scaling():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(100):
        problem = random_problem(rng, cells=128)
        c = float(rng.uniform(0.2, 5.0))
        scaled = WeightedProblem(
            weights=tuple(c * w for w in problem.weights),
            table=problem.table)
        alpha = random_alpha(rng, problem.m)
        res = maxsum_partition(problem, alpha)
        res_c = maxsum_partition(scaled, alpha)
        ok &= bool(np.array_equal(res.allocation.assignment,
                                  res_c.allocation.assignment))
        ok &= bool(np.all(np.abs(res_c.u - res.u / c) <= 1e-12))
        ok &= abs(res_c.g_value - res.g_value / c) <= 1e-12
    report("criterion 6g", ok,
           "assignments invariant and values scaled by 1/c, 100 trials")


def test_criterion_7_equitability(competitive_problem):
    res = solve_partition(competitive_problem, SolverConfig(epsilon=1e-3))
    spread = res.pvv.spread
    proportional = bool(np.all(res.pvv.u >= 0.2))
    ok = res.converged and spread < 1e-3 and proportional
    report("criterion 7",
           ok,
           f"equitable partition: spread {spread:.2e} < 1e-3, "
           f"all values >= 1/5: {proportional}, "
           f"u = {np.array2string(res.pvv.u, precision=5)}")
