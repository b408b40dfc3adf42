"""Coalitional game induced by the weighted maxmin division, and its Shapley
values.

A coalition S plays against the singletons of the remaining players; its game
value is w(S) times the maxmin value of that structure.  Two weight systems
are supported: coalition cardinality, and pre-division utility, where w(S) is
what S's joint preference assigns to the union of its members' pieces in the
competitive optimal partition.

Game values come from the cutting-plane solver (``cutting``), and so does
the competitive pre-solve behind pre-division weights: its master-LP duals
mix maxsum partitions into an equitable fractional partition.  The pre-solve
measures only the singletons and keeps that partition; each weight is read
off the measure table its game is solved on, so weights and game values
share one grid and one table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .cutting import cutting_plane_value
from .measures import (DEFAULT_GRID_CELLS, Grid, MeasureTable,
                       coalition_table)
from .partition import WeightedProblem
from .subgradient import SolverConfig

CARDINALITY = "cardinality"
PRE_DIVISION = "pre_division"

#: competitive pre-solve for pre-division weights: at this epsilon the master
#: LP closes the bundled singletons' bracket to 8.9e-10 in 68 queries (27 on
#: the 64-cell grid, the first at the axis optimum, then 41 on the 4,096
#: cells) and 90 pivots, and its lambda mix splits 5 of the 4,096 cells; at
#: 1e-3 it splits 1,363
PRE_SOLVE_CONFIG = SolverConfig(epsilon=1e-9)


def default_game_config(epsilon: float = 1e-3) -> SolverConfig:
    """Settings for game solves.  At the default epsilon this is
    ``SolverConfig()``, ``full_game``'s default; ``perfbench`` calls it."""
    return SolverConfig(epsilon=epsilon)


@dataclass(frozen=True)
class WeightSystem:
    """Coalition weight function: cardinality weights when ``shares`` is
    None, else pre-division weights.

    A pre-division system keeps its competitive pre-solve's fractional
    partition: ``shares[i, k]`` is player i's share of cell k.  ``weight_of``
    values a coalition on the table its game is solved on, which must be on
    the pre-solve's grid.  ``converged`` records whether the pre-solve
    closed its bracket to epsilon; game values built on unconverged weights
    are flagged, never silently trusted.
    """

    shares: np.ndarray | None = None
    converged: bool = True

    @property
    def kind(self) -> str:
        return CARDINALITY if self.shares is None else PRE_DIVISION


def cardinality_weights() -> WeightSystem:
    return WeightSystem()


def weight_of(system: WeightSystem, coalition, table: MeasureTable) -> float:
    """w(S): |S| under cardinality weights.  Under pre-division weights, what
    S's joint preference assigns to its members' shares, read off S's row of
    ``table``; a table on another grid raises ValueError, and one without
    that row KeyError."""
    s = sorted(set(coalition))
    if not s:
        raise ValueError("empty coalition has no weight")
    if system.shares is None:
        return float(len(s))
    if table.grid.cell_count != system.shares.shape[1]:
        raise ValueError("pre-division weights and the table are on "
                         "different grids")
    row = table.mass_row(s)  # before the shares, so a missing row is KeyError
    return float(system.shares[s].sum(axis=0) @ row)


def pre_division_weights(players, config: SolverConfig = PRE_SOLVE_CONFIG,
                         grid: Grid = Grid(DEFAULT_GRID_CELLS)
                         ) -> WeightSystem:
    """Weights from the competitive optimal partition.

    Measures the n singletons on ``grid`` and solves on that table
    (``pre_division_from_table``).
    """
    singletons = tuple((i,) for i in range(len(players)))
    return pre_division_from_table(coalition_table(players, singletons, grid),
                                   config)


def pre_division_from_table(table: MeasureTable,
                            config: SolverConfig = PRE_SOLVE_CONFIG
                            ) -> WeightSystem:
    """Weights from the competitive optimal partition, on ``table``, whose
    rows must be the n singletons in order.

    Solves the singletons' equal-weight problem with the cutting-plane
    solver and keeps the lambda mix of its maxsum partitions (``shares`` of
    the result): a fractional partition, equitable at the optimum, that
    splits only a few cells.  No coalition is valued here; ``weight_of``
    reads each weight off the table its game is solved on.  If the pre-solve
    stops short of ``config.epsilon``, the system is flagged unconverged.
    """
    n = len(table.coalitions)
    singletons = tuple((i,) for i in range(n))
    if table.coalitions != singletons:
        raise ValueError("the pre-solve table must hold the singletons, "
                         "in order")
    res = cutting_plane_value(WeightedProblem(table, (1.0,) * n), config)
    return WeightSystem(shares=res.shares, converged=res.converged)


def _nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    out = []
    for r in range(1, n + 1):
        out.extend(itertools.combinations(range(n), r))
    return out


def versus_singletons(coalition, n: int) -> tuple[tuple[int, ...], ...]:
    """Structure where the coalition faces everyone else alone, in canonical
    (sorted) order."""
    s = tuple(sorted(set(coalition)))
    units = [s] + [(j,) for j in range(n) if j not in s]
    return tuple(sorted(units))


@dataclass(frozen=True)
class GameEntry:
    value: float
    converged: bool


@dataclass(frozen=True)
class GameTable:
    players: int
    system: WeightSystem
    entries: dict  # frozenset -> GameEntry

    def value(self, coalition) -> float:
        return self.entries[frozenset(coalition)].value

    @property
    def all_converged(self) -> bool:
        return all(e.converged for e in self.entries.values())


def full_game(players, system: WeightSystem,
              config: SolverConfig = SolverConfig(),
              grid: Grid = Grid(DEFAULT_GRID_CELLS), jobs: int = 1,
              subsets=None) -> GameTable:
    """Game values w(S) times the maxmin value of S versus the remaining
    singletons, for each coalition S of ``subsets`` (default: every nonempty
    coalition), keyed in that order.

    The measure table holds only the units these structures use: every
    nonempty coalition by default, S and the other singletons for
    ``subsets=[S]``.  Each unit is valued once (``weight_of``), and both
    the structure weights and the entry values read those values.
    Structures that coincide after canonical ordering (all singletons, for
    instance) are solved once.  Solves run serially; ``jobs`` is accepted
    and ignored, since worker threads did not pay.
    """
    n = len(players)
    if subsets is None:
        subsets = _nonempty_subsets(n)
    structures = {}
    for s in subsets:
        structures.setdefault(versus_singletons(s, n), []).append(s)
    units = dict.fromkeys(u for structure in structures for u in structure)
    table = coalition_table(players, list(units), grid)
    weights = {u: weight_of(system, u, table) for u in units}

    # each result is dropped once its entries are made, so the held columns
    # of one solve at a time stay in memory
    entries = dict.fromkeys(frozenset(s) for s in subsets)
    for structure in sorted(structures):
        res = cutting_plane_value(WeightedProblem(
            table.restrict(structure),
            tuple(weights[u] for u in structure)), config)
        for s in structures[structure]:
            entries[frozenset(s)] = GameEntry(
                value=weights[tuple(sorted(set(s)))] * res.midpoint,
                converged=res.converged and system.converged)
    return GameTable(players=n, system=system, entries=entries)


@dataclass(frozen=True)
class ShapleyResult:
    values: np.ndarray
    ranking: tuple[int, ...]  # player indices, best first


def shapley(game: GameTable) -> ShapleyResult:
    """Average marginal contributions, by direct subset enumeration."""
    n = game.players
    for s in _nonempty_subsets(n):
        if frozenset(s) not in game.entries:
            raise KeyError(f"game table is missing coalition {list(s)}")

    def eta(s: frozenset) -> float:
        return game.entries[s].value if s else 0.0

    phi = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for r in range(n):
            for s in itertools.combinations(others, r):
                w = factorial(r) * factorial(n - r - 1) / factorial(n)
                phi[i] += w * (eta(frozenset(s) | {i}) - eta(frozenset(s)))
    ranking = tuple(sorted(range(n), key=lambda i: (-phi[i], i)))
    return ShapleyResult(values=phi, ranking=ranking)
