import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fairdiv.coalitions
from fairdiv import (DensitySpec, GameTable, Grid, SolverConfig,
                     WeightedProblem, cardinality_weights, coalition_table,
                     cutting_plane_value, full_game, pre_division_from_table,
                     pre_division_weights, shapley, weight_of)
from fairdiv.coalitions import (CARDINALITY, PRE_DIVISION, PRE_SOLVE_CONFIG,
                                GameEntry, versus_singletons)
from fairdiv.cutting import _MasterLP
from helpers import shapley_by_permutations


@pytest.fixture(scope="module")
def disjoint_pair():
    return [DensitySpec.piecewise([0, 0.5, 1], [2, 0]),
            DensitySpec.piecewise([0, 0.5, 1], [0, 2])]


@pytest.fixture(scope="module")
def pre_system(five_players):
    return pre_division_weights(five_players)


@pytest.fixture()
def built_tables(monkeypatch):
    """Every measure table that coalitions builds, in order."""
    tables = []
    build = fairdiv.coalitions.coalition_table

    def spy(players, subsets, grid):
        tables.append(build(players, subsets, grid))
        return tables[-1]

    monkeypatch.setattr(fairdiv.coalitions, "coalition_table", spy)
    return tables


def test_cardinality_weights(table_4096):
    system = cardinality_weights()
    assert weight_of(system, {0, 2, 4}, table_4096) == 3.0
    assert weight_of(system, (1,), table_4096) == 1.0


def test_empty_coalition_weight_rejected(table_4096):
    with pytest.raises(ValueError):
        weight_of(cardinality_weights(), (), table_4096)


def test_versus_singletons_structure():
    assert versus_singletons((2, 4), 5) == ((0,), (1,), (2, 4), (3,))
    assert versus_singletons((0, 1, 2, 3, 4), 5) == ((0, 1, 2, 3, 4),)


def test_pre_division_weights_on_bundled_instance(pre_system, table_4096):
    # each singleton piece is worth the competitive value, the full union is
    # the whole cake
    for i in range(5):
        assert weight_of(pre_system, (i,), table_4096) == pytest.approx(
            0.4035, abs=1e-3)
    assert weight_of(pre_system, range(5), table_4096) == pytest.approx(
        2.477, abs=2e-3)
    # pre-division weights dominate nothing trivially: every value positive
    assert all(weight_of(pre_system, s, table_4096) > 0
               for s in table_4096.coalitions)


def test_pre_division_singletons_equitable_inside_bracket(
        competitive_problem, pre_system, table_4096):
    # the lambda mix is exactly equitable, at the certified competitive value
    # of the same 4,096-cell table
    res = cutting_plane_value(competitive_problem, SolverConfig(epsilon=1e-9))
    singles = [weight_of(pre_system, (i,), table_4096) for i in range(5)]
    assert max(singles) - min(singles) < 1e-12
    assert all(res.lower <= v <= res.upper for v in singles)


def test_pre_division_splits_identical_players():
    twins = [DensitySpec.uniform()] * 2
    system = pre_division_weights(twins, grid=Grid(64))
    assert system.converged
    table = coalition_table(twins, [(0,), (1,), (0, 1)], Grid(64))
    assert {s: weight_of(system, s, table) for s in table.coalitions} == {
        (0,): 0.5, (1,): 0.5, (0, 1): 1.0}


def test_pre_division_missing_cache_rejected():
    uniform = [DensitySpec.uniform()]
    table = coalition_table(uniform, [(0,)], Grid(4096))
    with pytest.raises(KeyError):
        weight_of(pre_division_weights(uniform), (3,), table)


def test_weight_system_kind_follows_its_shares(pre_system):
    assert cardinality_weights().kind == CARDINALITY == "cardinality"
    assert pre_system.kind == PRE_DIVISION == "pre_division"


def test_pre_division_weights_on_another_grid_rejected(five_players,
                                                       pre_system):
    table = coalition_table(five_players, [(0,)], Grid(64))
    with pytest.raises(ValueError, match="different grids"):
        weight_of(pre_system, (0,), table)


def test_pre_solve_memory_does_not_grow_with_its_iterations(five_players):
    # a solve keeps each held column's query alpha (m floats) and its grid,
    # not its cell assignment: 78 iterations (52 oracle calls on the full
    # grid) peak no higher than 30 (27 on the 64-cell grid, then 4 on the
    # full grid), where keeping the assignments would add 48 x 65,536 x 8
    # bytes
    cells = 65536

    def peak(max_iterations):
        config = replace(PRE_SOLVE_CONFIG, max_iterations=max_iterations)
        tracemalloc.start()
        try:
            system = pre_division_weights(five_players, config=config,
                                          grid=Grid(cells))
            return system, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    capped, capped_peak = peak(30)
    full, full_peak = peak(PRE_SOLVE_CONFIG.max_iterations)
    assert not capped.converged and full.converged
    assert full_peak - capped_peak < cells * 8


def test_pre_solve_measures_only_the_singletons(five_players, built_tables):
    pre_division_weights(five_players)
    assert [t.coalitions for t in built_tables] == [((0,), (1,), (2,), (3,),
                                                     (4,))]


def test_pre_solve_on_a_given_singleton_table(five_players, pre_system):
    singletons = [(i,) for i in range(5)]
    table = coalition_table(five_players, singletons, Grid(4096))
    system = pre_division_from_table(table)
    assert system.converged
    assert system.shares.tobytes() == pre_system.shares.tobytes()
    for rows in ([(1,), (0,), (2,), (3,), (4,)], [(0, 1), (2,), (3,), (4,)],
                 [(1,), (2,)]):
        with pytest.raises(ValueError, match="singletons"):
            pre_division_from_table(coalition_table(five_players, rows,
                                                    Grid(64)))


def test_final_lambda_solved_only_where_read(five_players, monkeypatch):
    # game values read each solve's bracket, never its lambda: the basis
    # re-solve behind ``lam`` runs for the pre-solve's shares alone
    solved = []
    solution = _MasterLP.solution

    def spy(lp):
        solved.append(lp.n)
        return solution(lp)

    monkeypatch.setattr(_MasterLP, "solution", spy)
    full_game(five_players, cardinality_weights())
    assert solved == []
    pre_division_weights(five_players)
    assert len(solved) == 1


def test_bundled_pass_oracle_calls(five_players, monkeypatch):
    # the pre-solve and both full games of the bundled pass, with the
    # pre-solve's shares, query the maxsum oracle exactly this often on the
    # 64-cell and the 4,096-cell grid
    calls = {}
    oracle = fairdiv.cutting.maxsum_partition

    def spy(problem, alpha):
        cells = problem.grid.cell_count
        calls[cells] = calls.get(cells, 0) + 1
        return oracle(problem, alpha)

    monkeypatch.setattr(fairdiv.cutting, "maxsum_partition", spy)
    for _ in range(2):
        calls.clear()
        pre = pre_division_weights(five_players)
        full_game(five_players, cardinality_weights())
        full_game(five_players, pre)
        assert calls == {64: 517, 4096: 105}


def test_full_game_values_each_unit_once(five_players, all_subsets_5,
                                         monkeypatch):
    valued = []
    value = fairdiv.coalitions.weight_of

    def spy(system, coalition, table):
        valued.append(tuple(coalition))
        return value(system, coalition, table)

    monkeypatch.setattr(fairdiv.coalitions, "weight_of", spy)
    full_game(five_players, cardinality_weights())
    assert sorted(valued) == sorted(all_subsets_5)


def test_weights_read_off_each_game_table_match_the_full_table(
        five_players, pre_system, table_4096, built_tables):
    # a row's masses do not depend on the other rows of its table, so every
    # weight read off a one-entry game's table is the same float as off the
    # all-coalitions table
    for s in table_4096.coalitions:
        full_game(five_players, pre_system, subsets=[s])
        table = built_tables.pop()
        assert s in table.coalitions
        for u in table.coalitions:
            assert (weight_of(pre_system, u, table)
                    == weight_of(pre_system, u, table_4096))


@pytest.mark.parametrize("kind", ["card", "pre"])
def test_game_structures_bracket_their_fine_values(all_subsets_5, pre_system,
                                                   table_4096, kind):
    # every structure of the bundled game, solved as ``full_game`` solves
    # it (64 cells first, then the 4,096 cells), brackets the value its
    # epsilon = 1e-9 solve pins down, within the default epsilon of 1e-3
    system = cardinality_weights() if kind == "card" else pre_system
    structures = {versus_singletons(s, 5) for s in all_subsets_5}
    for structure in sorted(structures):
        problem = WeightedProblem(
            table_4096.restrict(structure),
            tuple(weight_of(system, u, table_4096) for u in structure))
        res = cutting_plane_value(problem)
        fine = cutting_plane_value(problem, SolverConfig(epsilon=1e-9))
        assert res.converged and fine.converged
        assert res.width < 1e-3
        assert res.lower <= fine.upper and fine.lower <= res.upper


def test_grand_coalition_game_value(disjoint_pair):
    # single-unit structure: eta(N) is the grand coalition's whole-cake value
    entry = full_game(disjoint_pair, cardinality_weights(), grid=Grid(64),
                      subsets=[(0, 1)]).entries[frozenset({0, 1})]
    assert entry.converged
    assert entry.value == pytest.approx(2.0, abs=1e-9)


def test_full_game_single_player():
    table = full_game([DensitySpec.uniform()], cardinality_weights(),
                      grid=Grid(16))
    assert table.value((0,)) == pytest.approx(1.0, abs=1e-12)
    assert table.all_converged


def test_full_game_disjoint_pair_both_systems(disjoint_pair):
    expected = {frozenset({0}): 1.0, frozenset({1}): 1.0,
                frozenset({0, 1}): 2.0}
    card = full_game(disjoint_pair, cardinality_weights(), grid=Grid(64))
    pre = full_game(disjoint_pair, pre_division_weights(disjoint_pair,
                                                        grid=Grid(64)),
                    grid=Grid(64))
    for s, want in expected.items():
        assert card.entries[s].value == pytest.approx(want, abs=1e-9)
        assert pre.entries[s].value == pytest.approx(want, abs=1e-9)
        # cardinality never beats pre-division by more than tolerance
        assert card.entries[s].value <= pre.entries[s].value + 2e-3


def test_game_on_subsets_matches_full_game(five_players, built_tables):
    # one entry on its own is the same float as in the full game, and its
    # table holds only the rows of its structure
    players = five_players[:3]
    systems = (cardinality_weights(),
               pre_division_weights(players, grid=Grid(64)))

    def rows():
        return len(built_tables.pop().coalitions)

    assert rows() == 3  # the pre-solve's singletons
    for system in systems:
        full = full_game(players, system, grid=Grid(64))
        assert rows() == 7
        for s in full.entries:
            one = full_game(players, system, grid=Grid(64), subsets=[s])
            assert list(one.entries) == [s]
            assert one.entries[s] == full.entries[s]
            assert rows() == len(versus_singletons(s, 3))
        some = full_game(players, system, grid=Grid(64),
                         subsets=[(1, 2), (0,)])
        assert list(some.entries) == [frozenset({1, 2}), frozenset({0})]
        assert rows() == 4  # {2,3} and the three singletons
    full_game(five_players, cardinality_weights(), grid=Grid(64),
              subsets=[(2, 4)])
    assert rows() == 4 and not built_tables


def test_empty_coalition_game_rejected(disjoint_pair):
    with pytest.raises(ValueError):
        full_game(disjoint_pair, cardinality_weights(), grid=Grid(16),
                  subsets=[()])


def make_table(n, eta):
    entries = {}
    import itertools
    for r in range(1, n + 1):
        for s in itertools.combinations(range(n), r):
            entries[frozenset(s)] = GameEntry(value=eta(frozenset(s)),
                                              converged=True)
    return GameTable(players=n, system=cardinality_weights(),
                     entries=entries)


def test_shapley_symmetric_game():
    table = make_table(4, lambda s: float(len(s)) ** 2)
    res = shapley(table)
    np.testing.assert_allclose(res.values, np.full(4, res.values[0]),
                               atol=1e-12)
    assert res.values.sum() == pytest.approx(16.0, abs=1e-9)


def test_shapley_matches_permutation_oracle():
    rng = np.random.default_rng(13)
    raw = {}

    def eta(s):
        if not s:
            return 0.0
        key = frozenset(s)
        if key not in raw:
            raw[key] = float(rng.uniform(0.0, len(key)))
        return raw[key]

    table = make_table(4, eta)
    res = shapley(table)
    want = shapley_by_permutations(eta, 4)
    np.testing.assert_allclose(res.values, want, atol=1e-12)


def test_shapley_efficiency_and_ranking():
    table = make_table(3, lambda s: {1: 0.4, 2: 0.9, 3: 1.6}[len(s)]
                       + 0.01 * max(s))
    res = shapley(table)
    assert res.values.sum() == pytest.approx(table.value((0, 1, 2)), abs=1e-9)
    order = list(res.ranking)
    assert sorted(order) == [0, 1, 2]
    assert all(res.values[order[i]] >= res.values[order[i + 1]]
               for i in range(2))


def test_shapley_missing_entry_rejected():
    table = make_table(3, lambda s: float(len(s)))
    entries = dict(table.entries)
    entries.pop(frozenset({0, 2}))
    broken = GameTable(players=3, system=table.system, entries=entries)
    with pytest.raises(KeyError):
        shapley(broken)


def test_unconverged_pre_solve_flags_every_entry(five_players,
                                                all_subsets_5):
    cramped = SolverConfig(epsilon=1e-9, max_iterations=3)
    system = pre_division_weights(five_players, config=cramped,
                                  grid=Grid(256))
    assert not system.converged
    every = coalition_table(five_players, all_subsets_5, Grid(256))
    assert all(weight_of(system, s, every) > 0 for s in every.coalitions)
    table = full_game(five_players[:2], pre_division_weights(
        five_players[:2], config=cramped, grid=Grid(64)), grid=Grid(64))
    assert not table.all_converged
    assert all(not e.converged for e in table.entries.values())


def test_singleton_game_consistency(five_players, pre_system):
    # a lone player's game value is the competitive value under both systems
    card = full_game(five_players, cardinality_weights(),
                     subsets=[(2,)]).entries[frozenset({2})]
    pre = full_game(five_players, pre_system,
                    subsets=[(2,)]).entries[frozenset({2})]
    assert card.converged and pre.converged
    assert card.value == pytest.approx(0.4035, abs=2e-3)
    assert pre.value == pytest.approx(0.4035, abs=2e-3)
