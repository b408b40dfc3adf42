import bisect
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, optimize, stats

import fairdiv.measures
from fairdiv import (DensitySpec, Grid, cell_masses, coalition_table,
                     density_cdf, density_eval)
from helpers import beta_cell_mass_quad, random_density


def test_density_eval_uniform():
    assert density_eval(DensitySpec.uniform(), 0.37) == 1.0


def test_density_eval_beta_closed_form():
    # Beta(2,5) pdf is 30 x (1-x)^4
    x = 0.2
    assert density_eval(DensitySpec.beta(2, 5), x) == pytest.approx(
        30 * x * (1 - x) ** 4, abs=1e-12)
    assert density_eval(DensitySpec.beta(2, 5), x) == pytest.approx(2.4576)


def test_density_eval_beta_zero_boundary():
    assert density_eval(DensitySpec.beta(7, 2), 0.0) == 0.0


def test_density_eval_outside_domain():
    for x in (-0.1, 1.1):
        with pytest.raises(ValueError):
            density_eval(DensitySpec.uniform(), x)


def test_density_eval_piecewise():
    spec = DensitySpec.piecewise([0.0, 0.5, 1.0], [2.0, 0.0])
    assert density_eval(spec, 0.25) == 2.0
    assert density_eval(spec, 0.75) == 0.0
    xs = np.array([0.0, 0.49, 0.5, 1.0])
    np.testing.assert_allclose(density_eval(spec, xs), [2.0, 2.0, 0.0, 0.0])


def test_piecewise_normalized_on_load():
    spec = DensitySpec.piecewise([0.0, 0.5, 1.0], [3.0, 1.0])
    # raw mass is 2, so values become (1.5, 0.5)
    assert spec.values == (1.5, 0.5)


@pytest.mark.parametrize("kwargs", [
    dict(kind="beta", a=0.0, b=1.0),
    dict(kind="beta", a=2.0, b=-1.0),
    dict(kind="piecewise", breakpoints=(0.0, 0.5), values=(2.0,)),  # end != 1
    dict(kind="piecewise", breakpoints=(0.1, 1.0), values=(2.0,)),  # start != 0
    dict(kind="piecewise", breakpoints=(0.0, 0.5, 0.5, 1.0),
         values=(1.0, 1.0, 1.0)),                                   # not increasing
    dict(kind="piecewise", breakpoints=(0.0, 0.5, 1.0), values=(3.0, -1.0)),
    dict(kind="wiggly"),
    # log B(a, b) is NaN or inf: the densities would be NaN or 0
    dict(kind="beta", a=1e308, b=1e308),
    dict(kind="beta", a=1e307, b=1e307),
    dict(kind="beta", a=1e-320, b=1e-320),
])
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        DensitySpec(**kwargs)


def test_cell_masses_uniform_four_cells():
    masses = cell_masses(DensitySpec.uniform(), Grid(4))
    np.testing.assert_allclose(masses, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_cell_masses_beta_two_cells():
    # frozen from independent quadrature of 30 x (1-x)^4 over [0, 0.5]
    left, err = integrate.quad(lambda x: 30 * x * (1 - x) ** 4, 0.0, 0.5)
    assert err < 1e-12
    assert left == pytest.approx(0.890625, abs=1e-12)
    masses = cell_masses(DensitySpec.beta(2, 5), Grid(2))
    np.testing.assert_allclose(masses, [0.890625, 0.109375], atol=1e-12)


def test_cell_masses_piecewise_left_half():
    masses = cell_masses(DensitySpec.piecewise([0.0, 0.5, 1.0], [2.0, 0.0]),
                         Grid(2))
    np.testing.assert_allclose(masses, [1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("spec", [
    DensitySpec.uniform(),
    DensitySpec.beta(2, 5),
    DensitySpec.beta(0.7, 0.9),
    DensitySpec.beta(10, 10),
    DensitySpec.piecewise([0.0, 0.2, 0.7, 1.0], [1.0, 2.0, 0.5]),
])
@pytest.mark.parametrize("cells", [64, 300, 4096])
def test_masses_normalized(spec, cells):
    assert cell_masses(spec, Grid(cells)).sum() == pytest.approx(1.0, abs=1e-9)


def test_grid_invariants():
    g = Grid(1000)
    assert g.edges[0] == 0.0 and g.edges[-1] == 1.0
    assert abs(np.diff(g.edges).sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        Grid(0)


def test_empty_coalition_rejected(five_players):
    with pytest.raises(ValueError):
        coalition_table(five_players, [()], Grid(16))
    with pytest.raises(ValueError):
        coalition_table(five_players, [], Grid(16))


def test_singleton_row_identical_to_player(five_players):
    grid = Grid(512)
    table = coalition_table(five_players, [(2,)], grid)
    np.testing.assert_array_equal(table.masses[0],
                                  cell_masses(five_players[2], grid))


def test_identical_players_coalition_row(five_players):
    grid = Grid(256)
    players = [five_players[0], five_players[0]]
    table = coalition_table(players, [(0,), (0, 1)], grid)
    np.testing.assert_array_equal(table.masses[0], table.masses[1])


def test_coalition_mass_superadditive(five_players, table_4096):
    grid = table_4096.grid
    player_masses = np.vstack([cell_masses(p, grid) for p in five_players])
    for i, s in enumerate(table_4096.coalitions):
        member_best = player_masses[list(s)].max(axis=0)
        assert np.all(table_4096.masses[i] >= member_best - 1e-12)


def test_coalition_value_monotone(table_4096):
    totals = dict(zip(table_4096.coalitions, table_4096.masses.sum(axis=1)))
    for s, vs in totals.items():
        for t, vt in totals.items():
            if set(s) <= set(t):
                assert vs <= vt + 1e-9


def test_coalition_value_in_range(table_4096):
    for s, total in zip(table_4096.coalitions, table_4096.masses.sum(axis=1)):
        assert 1.0 - 1e-9 <= total <= len(s) + 1e-9


def test_grand_coalition_mass(table_4096):
    grand = table_4096.mass_row(range(5)).sum()
    assert grand == pytest.approx(2.477, abs=2e-3)


def test_refinement_stability(five_players, all_subsets_5, table_4096):
    finer = coalition_table(five_players, all_subsets_5, Grid(8192))
    assert np.max(np.abs(finer.masses.sum(axis=1)
                         - table_4096.masses.sum(axis=1))) < 1e-4


def test_restrict_preserves_rows(table_4096):
    sub = table_4096.restrict([(0, 1), (2,)])
    assert sub.coalitions == ((0, 1), (2,))
    np.testing.assert_array_equal(sub.masses[1],
                                  table_4096.mass_row((2,)))


def test_row_lookup_missing():
    table = coalition_table([DensitySpec.uniform()], [(0,)], Grid(8))
    with pytest.raises(KeyError):
        table.row_index((0, 1))


def test_beta_masses_match_scipy_quadrature():
    # independent oracle: integrate the pdf over a few random cells
    spec = DensitySpec.beta(3, 8)
    grid = Grid(64)
    masses = cell_masses(spec, grid)
    rng = np.random.default_rng(7)
    for k in rng.integers(0, 64, size=6):
        val, _ = integrate.quad(stats.beta(3, 8).pdf,
                                grid.edges[k], grid.edges[k + 1])
        assert masses[k] == pytest.approx(val, abs=1e-12)


def test_each_crossing_solved_once(five_players, all_subsets_5, table_4096,
                                   monkeypatch):
    # 18 distinct (ordered pair, cell) crossings; one per coalition holding
    # the pair would be 75 root finds
    calls = []
    solve = fairdiv.measures._crossing_point
    monkeypatch.setattr(fairdiv.measures, "_crossing_point",
                        lambda *args: calls.append(args) or solve(*args))
    table = coalition_table(five_players, all_subsets_5, Grid(4096))
    assert len(calls) == 18
    np.testing.assert_array_equal(table.masses, table_4096.masses)


def _crossings_match_scipy_brentq(players, subsets, grid, monkeypatch):
    """Every root find of a table build against ``scipy.optimize.brentq`` on
    the same bracket, evaluating densities through the public
    ``density_eval``; returns the brentq function-call counts."""
    calls = []
    solve = fairdiv.measures._crossing_point
    monkeypatch.setattr(fairdiv.measures, "_crossing_point",
                        lambda *args: calls.append(args) or solve(*args))
    coalition_table(players, subsets, grid)
    evaluations = []
    for spec_a, spec_b, xl, xr in calls:
        lo, hi = max(xl, 1e-12), min(xr, 1.0 - 1e-12)

        def diff(x):
            return density_eval(spec_a, x) - density_eval(spec_b, x)

        root, info = optimize.brentq(diff, lo, hi, xtol=1e-15,
                                     full_output=True)
        assert solve(spec_a, spec_b, xl, xr) == root
        evaluations.append(info.function_calls)
    return evaluations


def test_crossings_match_scipy_brentq(five_players, all_subsets_5,
                                      monkeypatch):
    evaluations = _crossings_match_scipy_brentq(
        five_players, all_subsets_5, Grid(4096), monkeypatch)
    assert len(evaluations) == 18


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_crossings_match_scipy_brentq_random(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    players = [random_density(rng) for _ in range(6)]
    subsets = [s for r in range(1, 7)
               for s in itertools.combinations(range(6), r)]
    evaluations = _crossings_match_scipy_brentq(players, subsets, Grid(2048),
                                                monkeypatch)
    # a crossing at a piecewise jump is found by bisection: from a bracket
    # of 1/2048 down to 1e-15 takes 40 or more halvings
    assert max(evaluations) >= 40


def _cubic(x):
    # a triple root, which Brent's steps approach too slowly for 100
    # iterations at xtol 1e-15
    return (0.2 - x) ** 3


def _nan_inside(x):
    return 1.0 if x < 0.4 else (-1.0 if x > 0.6 else float("nan"))


@pytest.mark.parametrize("f, error", [(_cubic, RuntimeError),
                                      (_nan_inside, ValueError)])
def test_brentq_fails_as_scipy_does(f, error):
    with pytest.raises(error) as ours:
        fairdiv.measures._brentq(f, 0.0, 1.0, f(0.0), f(1.0))
    with pytest.raises(error) as scipys:
        optimize.brentq(f, 0.0, 1.0, xtol=1e-15)
    assert str(ours.value) == str(scipys.value)


def test_split_cell_evaluates_only_the_crossing_cdfs(
        five_players, all_subsets_5, table_4096, monkeypatch):
    # each player's (integer-shape or uniform) CDF is evaluated once as an
    # array, at every grid edge, for its cell masses; a split cell evaluates
    # its 4 CDFs on plain floats through the players' ``_cdf_at``: 2 at the
    # crossing, and 2 at its edges, which give the array's bits
    scalar_calls, array_calls = [], []
    cdf, cdf_at = fairdiv.measures.density_cdf, fairdiv.measures._cdf_at

    def spy(spec, x):
        (array_calls if np.ndim(x) else scalar_calls).append(x)
        return cdf(spec, x)

    def counted_cdf_at(spec):
        at = cdf_at(spec)
        return lambda x: scalar_calls.append(x) or at(x)

    monkeypatch.setattr(fairdiv.measures, "density_cdf", spy)
    monkeypatch.setattr(fairdiv.measures, "_cdf_at", counted_cdf_at)
    table = coalition_table(five_players, all_subsets_5, Grid(4096))
    np.testing.assert_array_equal(table.masses, table_4096.masses)
    assert len(array_calls) == len(five_players)
    assert all(np.array_equal(x, table.grid.edges) for x in array_calls)
    edges = set(table.grid.edges.tolist())
    at_edges = [x for x in scalar_calls if x in edges]
    assert len(scalar_calls) == 4 * 18  # 18 distinct split cells
    assert len(at_edges) == 2 * 18


def test_table_evaluates_only_the_players_its_rows_name(five_players,
                                                       monkeypatch):
    # rows naming players 1, 3 and 5 of six evaluate those three CDFs at the
    # grid edges and no other, and equal the same rows of the table of every
    # coalition of the six
    six_players = list(five_players) + [DensitySpec.beta(3, 2)]
    grid = Grid(64)
    full = coalition_table(six_players, _all_subsets(6), grid)
    array_calls = []
    cdf = fairdiv.measures.density_cdf

    def spy(spec, x):
        if np.ndim(x):
            array_calls.append(spec)
        return cdf(spec, x)

    monkeypatch.setattr(fairdiv.measures, "density_cdf", spy)
    rows = [(0,), (2, 4)]
    table = coalition_table(six_players, rows, grid)
    assert array_calls == [six_players[p] for p in (0, 2, 4)]
    for row in rows:
        np.testing.assert_array_equal(table.mass_row(row), full.mass_row(row))


def test_unsplit_cells_are_the_largest_member_mass(
        five_players, all_subsets_5, table_4096, monkeypatch):
    # densities are evaluated at the cell edges only, never at midpoints;
    # a cell whose two edge-dominant members agree holds the largest member
    # mass, bit for bit, and a split cell is never below it
    grid = table_4096.grid
    midpoints = (np.arange(grid.cell_count) + 0.5) / grid.cell_count
    array_calls = []
    evaluate = fairdiv.measures.density_eval

    def spy(spec, x):
        out = evaluate(spec, x)
        if np.ndim(x):
            array_calls.append((np.array(x), out))
        return out

    monkeypatch.setattr(fairdiv.measures, "density_eval", spy)
    table = coalition_table(five_players, all_subsets_5, grid)
    np.testing.assert_array_equal(table.masses, table_4096.masses)
    assert not any(np.array_equal(x, midpoints) for x, _ in array_calls)

    # one array call per player, at the (clipped) edges
    assert len(array_calls) == len(five_players)
    edges = np.clip(grid.edges, 1e-12, 1.0 - 1e-12)
    assert all(np.array_equal(x, edges) for x, _ in array_calls)
    at_edges = np.vstack([out for _, out in array_calls])
    player_masses = np.vstack([cell_masses(p, grid) for p in five_players])
    unsplit = 0
    for s, row in zip(table.coalitions, table.masses):
        largest = player_masses[list(s)].max(axis=0)
        dominant = at_edges[list(s)].argmax(axis=0)
        agree = dominant[:-1] == dominant[1:]
        assert np.array_equal(row[agree], largest[agree])
        assert np.all(row[~agree] >= largest[~agree])
        unsplit += int(agree.sum())
    assert unsplit == 31 * grid.cell_count - 75  # 75 split cells


def _rows_alone_match(players, subsets, grid):
    table = coalition_table(players, subsets, grid)
    for s, row in zip(subsets, table.masses):
        np.testing.assert_array_equal(
            row, coalition_table(players, [s], grid).masses[0])


def test_shared_crossings_match_single_row_builds(five_players, all_subsets_5):
    _rows_alone_match(five_players, all_subsets_5, Grid(4096))


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_shared_crossings_match_single_row_builds_random(seed):
    rng = np.random.default_rng(seed)
    players = [random_density(rng) for _ in range(6)]
    subsets = [s for r in range(1, 7)
               for s in itertools.combinations(range(6), r)]
    _rows_alone_match(players, subsets, Grid(2048))


def test_prefix_walk_shuffled_rows_match_single_row_builds(five_players,
                                                          all_subsets_5):
    order = np.random.default_rng(5).permutation(len(all_subsets_5))
    _rows_alone_match(five_players, [all_subsets_5[i] for i in order],
                      Grid(4096))


def test_prefix_walk_duplicated_rows_match_single_row_builds(five_players,
                                                            all_subsets_5):
    subsets = all_subsets_5[::3] + [(0, 1, 2)] * 2 + all_subsets_5[::5]
    _rows_alone_match(five_players, subsets, Grid(4096))


@pytest.mark.parametrize("structure", [[(1, 3, 4), (0, 2)],
                                       [(4,), (0, 1, 2, 3)]])
def test_prefix_walk_rows_without_their_prefixes(five_players, structure):
    # the prefixes (1,), (1, 3) and (0,), (0, 1), (0, 1, 2) are never rows
    _rows_alone_match(five_players, structure, Grid(4096))


def _gathered_rows(players, subsets, grid):
    """Each row from one gather over its members: the largest member mass,
    raised to the split mass where the members dominating at a cell's two
    edges (argmax, so the lowest index on ties) differ."""
    edges = np.clip(grid.edges, 1e-12, 1.0 - 1e-12)
    at_edges = np.vstack([density_eval(p, edges) for p in players])
    cdf_at = [fairdiv.measures._cdf_at(p) for p in players]
    player_masses = np.vstack([cell_masses(p, grid) for p in players])
    rows = []
    for s in subsets:
        members = sorted(s)
        row = player_masses[members].max(axis=0)
        dominant = np.array(members)[at_edges[members].argmax(axis=0)]
        for k in np.flatnonzero(dominant[:-1] != dominant[1:]):
            split = fairdiv.measures._split_cell_mass(
                players, cdf_at, dominant[k], dominant[k + 1], k, grid)
            row[k] = max(split, row[k])
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("seed", [3, 11])
def test_prefix_walk_matches_per_row_gathers(seed):
    rng = np.random.default_rng(seed)
    players = [random_density(rng) for _ in range(5)]
    subsets = [s for r in range(1, 6)
               for s in itertools.combinations(range(5), r)]
    subsets = [subsets[i] for i in rng.permutation(len(subsets))]
    np.testing.assert_array_equal(
        coalition_table(players, subsets, Grid(1024)).masses,
        _gathered_rows(players, subsets, Grid(1024)))


#: the uniform, Beta(1, 1) and flat piecewise densities tie at every edge,
#: and the first piecewise density ties with them on [0, 0.3)
TIE_PLAYERS = [DensitySpec.uniform(),
               DensitySpec.piecewise([0.0, 0.3, 0.6, 1.0], [1.0, 0.4, 1.45]),
               DensitySpec.beta(2, 2),
               DensitySpec.piecewise([0.0, 0.5, 1.0], [1.0, 1.0]),
               DensitySpec.beta(1, 1)]


def _all_subsets(n):
    return [s for r in range(1, n + 1)
            for s in itertools.combinations(range(n), r)]


def test_prefix_walk_breaks_edge_ties_like_argmax():
    # a tied edge stays with the lowest index, and split masses differ from
    # the largest member mass in the last bits, so a tie given to another
    # member changes cells
    subsets = _all_subsets(5)
    np.testing.assert_array_equal(
        coalition_table(TIE_PLAYERS, subsets, Grid(10)).masses,
        _gathered_rows(TIE_PLAYERS, subsets, Grid(10)))


def _alternating_pair(pieces=500):
    """Two piecewise densities of ``pieces`` pieces, levels alternating,
    the second shifted by half a piece: their order flips every
    1/``pieces``, so at 1,024 cells about every other edge starts a run."""
    first = DensitySpec.piecewise(np.linspace(0.0, 1.0, pieces + 1),
                                  np.resize([2.0, 0.5], pieces))
    shifted = np.concatenate([[0.0], (np.arange(1, pieces) - 0.5) / pieces,
                              [1.0]])
    return [first, DensitySpec.piecewise(shifted,
                                         np.resize([1.0, 2.5], pieces))]


def _run_case_players(case):
    if case == "alternating":
        return _alternating_pair()
    if case == "ties":
        return TIE_PLAYERS
    if case == "poles":  # infinite at 0 or 1, clipped to 1e-12 at the edges
        return [DensitySpec.beta(0.5, 0.5), DensitySpec.beta(0.3, 1.0),
                DensitySpec.uniform(), DensitySpec.beta(1.0, 0.3),
                DensitySpec.beta(2, 2)]
    rng = np.random.default_rng(17)
    return [random_density(rng) for _ in range(6)]


RUN_CASES = [("alternating", 1024)] + [
    (case, cells) for case in ("ties", "poles", "random")
    for cells in (1, 2, 3, 10, 1024)]


@pytest.mark.parametrize("case, cells", RUN_CASES)
def test_rank_run_walk_matches_per_row_gathers(case, cells):
    players = _run_case_players(case)
    subsets = _all_subsets(len(players))
    np.testing.assert_array_equal(
        coalition_table(players, subsets, Grid(cells)).masses,
        _gathered_rows(players, subsets, Grid(cells)))


@pytest.mark.parametrize("case, cells", RUN_CASES)
def test_rank_runs_match_per_edge_rankings(case, cells):
    # a run starts exactly where the ranking by decreasing edge density,
    # ties to the lowest index, differs from the previous edge's, and
    # holds that ranking on every one of its edges
    players = _run_case_players(case)
    edges = np.clip(Grid(cells).edges, 1e-12, 1.0 - 1e-12)
    at_edges = np.vstack([density_eval(p, edges) for p in players])
    rankings = [sorted(range(len(players)), key=lambda p: (-f[p], p))
                for f in at_edges.T.tolist()]
    starts, order = fairdiv.measures._rank_runs(
        players, range(len(players)), Grid(cells))
    assert starts.tolist() == [0] + [
        e for e in range(1, cells + 1) if rankings[e] != rankings[e - 1]]
    run_of_edge = np.searchsorted(starts, np.arange(cells + 1),
                                  side="right") - 1
    assert [order[:, r].tolist() for r in run_of_edge] == rankings
    if case == "alternating":
        assert len(starts) == 500


def test_only_players_sharing_a_coalition_are_ranked(five_players,
                                                    monkeypatch):
    # a player that is alone in every row it is in dominates nothing, so
    # its density is never evaluated at the edges
    evaluated = []
    evaluate = fairdiv.measures.density_eval

    def spy(spec, x):
        evaluated.append(spec)
        return evaluate(spec, x)

    monkeypatch.setattr(fairdiv.measures, "density_eval", spy)
    subsets = [(4,), (1, 3), (0,), (2,), (1,)]
    table = coalition_table(five_players, subsets, Grid(4096))
    assert evaluated == [five_players[1], five_players[3]]
    np.testing.assert_array_equal(
        table.masses, _gathered_rows(five_players, subsets, Grid(4096)))
    evaluated.clear()
    singletons = [(i,) for i in range(5)]
    table = coalition_table(five_players, singletons, Grid(4096))
    assert evaluated == []
    np.testing.assert_array_equal(
        table.masses, _gathered_rows(five_players, singletons, Grid(4096)))


@pytest.mark.parametrize("seed", [3, 11])
def test_permuted_subsets_permute_the_rows(seed):
    rng = np.random.default_rng(seed)
    players = [random_density(rng) for _ in range(6)]
    subsets = [s for r in range(1, 7)
               for s in itertools.combinations(range(6), r)]
    order = rng.permutation(len(subsets))
    table = coalition_table(players, subsets, Grid(2048))
    permuted = coalition_table(players, [subsets[i] for i in order],
                               Grid(2048))
    assert permuted.coalitions == tuple(subsets[i] for i in order)
    np.testing.assert_array_equal(permuted.masses, table.masses[order])


def _beta_shapes():
    """Seeded (a, b) in [0.3, 40], log-uniform, plus shapes at a = 1 or
    b = 1 on both sides of 1."""
    rng = np.random.default_rng(2024)
    drawn = np.exp(rng.uniform(np.log(0.3), np.log(40.0), size=(80, 2)))
    edge = [(1.0, 1.0), (1.0, 0.3), (0.3, 1.0), (1.0, 40.0), (40.0, 1.0),
            (1.0, 2.5), (0.5, 0.5)]
    return edge + [tuple(ab) for ab in drawn.tolist()]


BETA_X = np.concatenate([[0.0, 1e-12, 1e-9, 1e-6],
                         np.linspace(0.0, 1.0, 2001)[1:-1],
                         [1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0]])


@pytest.mark.parametrize("a, b", _beta_shapes())
def test_beta_density_matches_scipy_stats(a, b):
    spec = DensitySpec.beta(a, b)
    ours = density_eval(spec, BETA_X)
    ref = stats.beta.pdf(BETA_X, a, b)
    # same 0, finite or inf pattern, including x = 0 and 1
    assert np.array_equal(np.isinf(ours), np.isinf(ref))
    assert np.array_equal(ours == 0.0, ref == 0.0)
    normal = np.isfinite(ref) & (ref >= np.finfo(float).tiny)
    rel = np.abs(ours[normal] - ref[normal]) / ref[normal]
    assert rel.max() <= 1e-12
    # below the normal range only an absolute comparison means anything
    sub = np.isfinite(ref) & ~normal
    assert np.all(np.abs(ours[sub] - ref[sub]) <= np.finfo(float).tiny)
    for x in (0.0, 0.37, 1.0):
        assert np.isinf(density_eval(spec, x)) == np.isinf(
            stats.beta.pdf(x, a, b))
    assert np.array_equal(density_cdf(spec, BETA_X),
                          stats.beta.cdf(BETA_X, a, b))
    assert density_cdf(spec, 0.37) == stats.beta.cdf(0.37, a, b)


def _scalar_values(spec, xs):
    at = fairdiv.measures._density_at(spec)
    return np.array([at(x) for x in xs.tolist()])


@pytest.mark.parametrize("a, b", _beta_shapes())
def test_scalar_beta_density_bitwise(a, b):
    spec = DensitySpec.beta(a, b)
    xs = BETA_X[(BETA_X > 0.0) & (BETA_X < 1.0)]
    assert np.array_equal(_scalar_values(spec, xs), density_eval(spec, xs))


def _scalar_cdfs(spec, xs):
    at = fairdiv.measures._cdf_at(spec)
    return np.array([at(x) for x in xs.tolist()])


@pytest.mark.parametrize("a, b", _beta_shapes())
def test_scalar_beta_cdf_bitwise(a, b):
    # the split cells' crossing CDFs, on plain floats, against the array
    # path that gives the edge CDFs
    spec = DensitySpec.beta(a, b)
    assert np.array_equal(_scalar_cdfs(spec, BETA_X), density_cdf(spec, BETA_X))
    assert density_cdf(spec, 0.37) == density_cdf(spec, np.array([0.37]))[0]


@pytest.mark.parametrize("seed", range(6))
def test_scalar_piecewise_and_uniform_cdf_bitwise(seed):
    rng = np.random.default_rng(seed)
    spec = random_density(rng)
    while spec.kind != "piecewise":
        spec = random_density(rng)
    bp = np.asarray(spec.breakpoints)
    xs = np.clip(np.concatenate([bp, np.nextafter(bp, -1.0),
                                 np.nextafter(bp, 2.0), rng.random(200),
                                 [0.0, 1.0]]), 0.0, 1.0)
    for spec in (spec, DensitySpec.uniform()):
        assert np.array_equal(_scalar_cdfs(spec, xs), density_cdf(spec, xs))


@pytest.mark.parametrize("seed", range(6))
def test_scalar_piecewise_density_bitwise(seed):
    rng = np.random.default_rng(seed)
    spec = random_density(rng)
    while spec.kind != "piecewise":
        spec = random_density(rng)
    bp = np.asarray(spec.breakpoints)
    xs = np.clip(np.concatenate([bp, np.nextafter(bp, -1.0),
                                 np.nextafter(bp, 2.0), [0.0, 1.0]]),
                 0.0, 1.0)
    assert np.array_equal(_scalar_values(spec, xs), density_eval(spec, xs))


def test_scalar_uniform_density_bitwise():
    spec = DensitySpec.uniform()
    assert np.array_equal(_scalar_values(spec, BETA_X),
                          density_eval(spec, BETA_X))


def test_table_build_makes_no_scalar_density_eval(five_players, all_subsets_5,
                                                  table_4096, monkeypatch):
    # root finds evaluate densities as plain floats, not through the
    # public array-API function
    scalar_calls = []
    evaluate = fairdiv.measures.density_eval

    def spy(spec, x):
        if np.ndim(x) == 0:
            scalar_calls.append(x)
        return evaluate(spec, x)

    monkeypatch.setattr(fairdiv.measures, "density_eval", spy)
    table = coalition_table(five_players, all_subsets_5, Grid(4096))
    assert scalar_calls == []
    np.testing.assert_array_equal(table.masses, table_4096.masses)


@pytest.mark.parametrize("module", ["fairdiv", "fairdiv.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    # the library loads numpy and scipy.special only
    src = os.path.dirname(os.path.dirname(os.path.abspath(fairdiv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    unloaded = ["scipy.stats", "scipy.optimize", "scipy.linalg",
                "scipy.integrate"]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; "
         f"print([m for m in {unloaded!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_split_cells_match_quadrature(five_players, table_4096):
    # a row's split cells are those whose two edges have different dominant
    # members; integrate the max member pdf over each of them (the uniform
    # player is beta(1, 1))
    grid = table_4096.grid
    shapes = np.array([(1.0, 1.0) if p.kind == "uniform" else (p.a, p.b)
                       for p in five_players])
    edges = np.clip(grid.edges, 1e-12, 1.0 - 1e-12)
    at_edges = stats.beta.pdf(edges, shapes[:, :1], shapes[:, 1:])
    checked = 0
    for row, s in enumerate(table_4096.coalitions):
        a, b = shapes[list(s)].T
        dominant = at_edges[list(s)].argmax(axis=0)
        for k in np.nonzero(dominant[:-1] != dominant[1:])[0]:
            ref, _ = integrate.quad(
                lambda x: stats.beta.pdf(x, a, b).max(),
                grid.edges[k], grid.edges[k + 1],
                epsabs=1e-16, epsrel=1e-14, limit=200)
            assert abs(table_4096.masses[row, k] - ref) <= 1e-13
            checked += 1
    assert checked == 75  # 18 distinct crossings, shared across rows


UNIT_X = np.concatenate([[0.0, 5e-324, 1e-12], np.linspace(0.0, 1.0, 1025),
                         [np.nextafter(1.0, 0.0), 1.0]])


def test_uniform_evaluates_as_its_one_piece():
    # the uniform density is the piecewise density of one piece of height 1,
    # bit for bit, scalar and array, at 0 and 1 too; and it still gives the
    # closed forms 1 and x
    uniform = DensitySpec.uniform()
    piece = DensitySpec.piecewise([0, 1], [1])
    assert (uniform.breakpoints, uniform.values) == (piece.breakpoints,
                                                     piece.values)
    for evaluate in (density_eval, density_cdf):
        assert np.array_equal(evaluate(uniform, UNIT_X),
                              evaluate(piece, UNIT_X))
        for x in UNIT_X.tolist():
            assert evaluate(uniform, x) == evaluate(piece, x)
    assert np.array_equal(density_eval(uniform, UNIT_X), np.ones_like(UNIT_X))
    assert np.array_equal(density_cdf(uniform, UNIT_X), UNIT_X)
    assert [density_cdf(uniform, x) for x in (0.0, 0.3, 1.0)] == [0.0, 0.3, 1.0]
    assert np.array_equal(_scalar_cdfs(uniform, UNIT_X), UNIT_X)
    assert np.array_equal(_scalar_values(uniform, UNIT_X), np.ones_like(UNIT_X))


@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(breakpoints=(0.0, 1.0), values=(2.0,)),
    dict(breakpoints=(0.0, 0.5, 1.0), values=(1.0, 1.0)),
    dict(breakpoints=(0.0, 1.0)),
])
def test_uniform_with_another_piece_rejected(kwargs):
    with pytest.raises(ValueError, match="one piece of height 1"):
        DensitySpec(kind="uniform", **kwargs)


def test_piece_lookup_agrees_at_grid_edges():
    # breakpoints on grid edges: the array lookup and the scalar bisect give
    # the same piece, which is the one the clipped lookup over all the
    # breakpoints gives, at x = 1 and NaN included
    grid = Grid(8)
    spec = DensitySpec.piecewise(grid.edges[[0, 2, 3, 5, 8]], [1, 3, 0, 2])
    xs = np.concatenate([grid.edges, np.nextafter(grid.edges[1:], 0.0),
                         [np.nan]])
    pieces = fairdiv.measures._pieces(spec, xs)
    inner = spec.breakpoints[1:-1]
    assert pieces.tolist() == [bisect.bisect_right(inner, x)
                               for x in xs.tolist()]
    clipped = np.clip(np.searchsorted(spec.breakpoints, xs, side="right") - 1,
                      0, len(spec.values) - 1)
    assert np.array_equal(pieces, clipped)
    assert pieces[:9].tolist() == [0, 0, 1, 2, 2, 3, 3, 3, 3]


def test_piecewise_spec_must_integrate_to_one():
    with pytest.raises(ValueError, match="must integrate to 1"):
        DensitySpec(kind="piecewise", breakpoints=(0.0, 1.0), values=(2.0,))


@pytest.mark.parametrize("x", [-0.1, 1.1, np.array([0.5, 1.5])])
def test_density_cdf_outside_domain(x):
    with pytest.raises(ValueError, match="outside \\[0,1\\]"):
        density_cdf(DensitySpec.beta(2, 5), x)


def test_coalition_with_unknown_player_rejected(five_players):
    with pytest.raises(ValueError, match="unknown players"):
        coalition_table(five_players, [(0,), (2, 5)], Grid(4))


#: shapes and grids the series cell masses are checked on: poles at 0 and 1,
#: skewed, moderate and narrow densities, and Beta(1000.5, 2.5), whose
#: ``betaln`` is 9.2e-13 off
SERIES_SHAPES = [(0.6, 0.7), (0.61, 11.9), (11.7, 0.65), (1.87, 7.1),
                 (9.13, 2.2), (50.5, 30.2), (200.3, 150.7), (1000.5, 2.5)]
SERIES_CELLS = [1, 7, 64, 100, 1024, 4096, 32768]


@pytest.mark.parametrize("a, b", SERIES_SHAPES)
def test_series_masses_match_betainc_differences(a, b):
    # every cell within 2e-14 of its betainc difference (which carries
    # about 1e-14 of its own at the larger shapes), every row summing to 1
    spec = DensitySpec.beta(a, b)
    for cells in SERIES_CELLS:
        grid = Grid(cells)
        masses = cell_masses(spec, grid)
        ref = np.diff(stats.beta.cdf(grid.edges, a, b))
        assert np.abs(masses - ref).max() <= 2e-14, cells
        assert abs(masses.sum() - 1.0) <= 1e-13, cells


@pytest.mark.parametrize("a, b", SERIES_SHAPES)
def test_series_masses_match_quadrature(a, b):
    # interior cells, the first and last at the 32-cell margin, against a
    # per-cell quadrature of scipy.stats' density
    spec = DensitySpec.beta(a, b)
    rng = np.random.default_rng(41)
    for cells in (100, 1024, 32768):
        grid = Grid(cells)
        masses = cell_masses(spec, grid)
        mode = int(np.argmax(masses))
        ks = {32, cells - 33, *rng.integers(32, cells - 32, size=8).tolist()}
        ks |= {k for k in (mode - 1, mode, mode + 1) if 32 <= k < cells - 32}
        for k in sorted(ks):
            ref = beta_cell_mass_quad(a, b, grid.edges[k], grid.edges[k + 1])
            assert abs(masses[k] - ref) <= 2e-16 + 1e-13 * ref, (cells, k)


@pytest.mark.parametrize("spec", [
    DensitySpec.uniform(),
    DensitySpec.piecewise([0.0, 0.2, 0.7, 1.0], [1.0, 2.0, 0.5]),
    DensitySpec.beta(2, 5), DensitySpec.beta(1, 1), DensitySpec.beta(10, 10),
    DensitySpec.beta(30, 3),
])
@pytest.mark.parametrize("cells", [1, 7, 64, 100, 4096, 32768])
def test_cdf_difference_masses_keep_their_bits(spec, cells):
    # piecewise, uniform and integer-shape beta masses are CDF differences
    grid = Grid(cells)
    assert np.array_equal(cell_masses(spec, grid),
                          np.diff(density_cdf(spec, grid.edges)))


def test_underflowing_density_falls_back_cell_by_cell():
    # Beta(200.3, 150.7)'s density underflows to 0 over much of [0, 1] at
    # 32,768 cells; those cells take their betainc differences, bit for
    # bit, as the end cells do, and no RuntimeWarning is raised (the suite
    # turns one into an error)
    spec, grid = DensitySpec.beta(200.3, 150.7), Grid(32768)
    edges = grid.edges
    f0 = density_eval(spec, edges[32:-33])
    series = np.full(f0.size, np.nan)
    fairdiv.measures._series_masses(spec, edges[32:-33], edges[33:-32], f0,
                                    series)
    fallback = np.flatnonzero(np.isnan(series)) + 32
    assert np.all(np.isin(np.flatnonzero(f0 == 0.0) + 32, fallback))
    assert fallback.size > 100
    masses = cell_masses(spec, grid)
    ref = np.diff(density_cdf(spec, edges))
    redo = np.concatenate([np.arange(32), fallback, np.arange(32768 - 32,
                                                              32768)])
    assert np.array_equal(masses[redo], ref[redo])
    assert np.abs(masses - ref).max() <= 2e-14


def test_series_table_evaluates_betainc_at_few_edges(monkeypatch):
    # two non-integer betas at 32,768 cells: betainc runs at the 33 + 33
    # edges of each player's end cells and at the 2 edges and the crossing
    # of each split cell, not at the 32,769 grid edges
    players = [DensitySpec.beta(1.87, 7.1), DensitySpec.beta(9.13, 2.2)]
    grid = Grid(32768)
    points, crossings = [], []
    betainc = fairdiv.measures.special.betainc
    solve = fairdiv.measures._crossing_point
    monkeypatch.setattr(fairdiv.measures.special, "betainc",
                        lambda a, b, x: points.append(np.size(x))
                        or betainc(a, b, x))
    monkeypatch.setattr(fairdiv.measures, "_crossing_point",
                        lambda *args: crossings.append(args) or solve(*args))
    table = coalition_table(players, [(0,), (1,), (0, 1)], grid)
    assert len(crossings) >= 1
    assert sorted(points) == [1] * (4 * len(crossings)) + [66, 66]
    assert sum(points) <= 2 * 65 + 2 + 4 * len(crossings)
    monkeypatch.undo()
    for p, row in zip(players, table.masses):
        np.testing.assert_array_equal(row, cell_masses(p, grid))


@pytest.mark.parametrize("seed", [3, 11])
def test_table_rows_keep_the_singleton_masses(seed):
    # a table's singleton rows, ranked players' included, are bit for bit
    # what ``cell_masses`` alone gives
    rng = np.random.default_rng(seed)
    players = [DensitySpec.beta(*rng.uniform(0.6, 12.0, size=2))
               for _ in range(3)] + [random_density(rng)]
    grid = Grid(4096)
    table = coalition_table(players, _all_subsets(4), grid)
    for p, spec in enumerate(players):
        np.testing.assert_array_equal(table.mass_row((p,)),
                                      cell_masses(spec, grid))
