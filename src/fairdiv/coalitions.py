"""Coalitional game induced by the weighted maxmin division, and its Shapley
values.

A coalition S plays against the singletons of the remaining players; its game
value is w(S) times the maxmin value of that structure.  Two weight systems
are supported: coalition cardinality, and pre-division utility, where w(S) is
what S's joint preference assigns to the union of its members' pieces in the
competitive optimal partition.

Game values come from the cutting-plane solver (``cutting``); the
competitive pre-solve behind pre-division weights stays on the projected
subgradient method.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .cutting import cutting_plane_value
from .measures import Grid, coalition_table
from .partition import WeightedProblem
from .subgradient import SolverConfig, solve_partition

CARDINALITY = "cardinality"
PRE_DIVISION = "pre_division"

#: competitive pre-solve for pre-division weights: tighter epsilon needs a
#: finer grid, since the value-vector spread is quantized at cell-mass scale
PRE_SOLVE_EPSILON = 1e-4
PRE_SOLVE_CELLS = 32_768


def default_game_config(epsilon: float = 1e-3) -> SolverConfig:
    return SolverConfig(epsilon=epsilon)


@dataclass(frozen=True)
class WeightSystem:
    """Coalition weight function; pre-division values are cached at build.

    ``converged`` records whether the competitive pre-solve reached its
    equitability target; game values built on unconverged weights are
    flagged, never silently trusted.
    """

    kind: str
    values: dict | None = None
    converged: bool = True

    def __post_init__(self):
        if self.kind not in (CARDINALITY, PRE_DIVISION):
            raise ValueError(f"unknown weight system {self.kind!r}")
        if self.kind == PRE_DIVISION and self.values is None:
            raise ValueError("pre-division weights need cached values")


def cardinality_weights() -> WeightSystem:
    return WeightSystem(kind=CARDINALITY)


def weight_of(system: WeightSystem, coalition) -> float:
    s = frozenset(coalition)
    if not s:
        raise ValueError("empty coalition has no weight")
    if system.kind == CARDINALITY:
        return float(len(s))
    try:
        return system.values[s]
    except KeyError:
        raise KeyError(f"no cached weight for coalition {sorted(s)}") from None


def pre_division_weights(players, config: SolverConfig | None = None,
                         cells: int = PRE_SOLVE_CELLS) -> WeightSystem:
    """Weights from the competitive optimal partition.

    Solves the all-singletons equal-weight problem to an equitable partition,
    then values every coalition's joint preference on the union of its
    members' pieces.  If the pre-solve cannot close the equitability gap
    (flat density ties can make the exact optimum unreachable on a grid),
    the best-spread partition is used and the system is flagged unconverged.
    Raises ``ValueError`` if that partition leaves some coalition a worthless
    piece, as it does for two identical players, who tie on every cell.
    """
    n = len(players)
    if config is None:
        config = SolverConfig(epsilon=PRE_SOLVE_EPSILON)
    all_subsets = _nonempty_subsets(n)
    full = coalition_table(players, all_subsets, Grid(cells))
    singletons = tuple((i,) for i in range(n))
    problem = WeightedProblem(structure=singletons, weights=(1.0,) * n,
                              table=full.restrict(singletons))
    res = solve_partition(problem, config)
    assign = res.allocation.assignment

    values = {}
    for s in all_subsets:
        piece = np.isin(assign, s)
        values[frozenset(s)] = float(full.mass_row(s)[piece].sum())
    if min(values.values()) <= 0.0:
        raise ValueError(
            "competitive pre-solve left a coalition with a worthless piece; "
            "pre-division weights are undefined for this instance")
    return WeightSystem(kind=PRE_DIVISION, values=values,
                        converged=res.converged)


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


def _structure_problem(structure, system: WeightSystem,
                       table) -> WeightedProblem:
    """The weighted problem of one structure, on rows of a measure table."""
    return WeightedProblem(
        structure=structure,
        weights=tuple(weight_of(system, unit) for unit in structure),
        table=table.restrict(structure))


def _entry(system: WeightSystem, coalition, res) -> GameEntry:
    return GameEntry(value=weight_of(system, coalition) * res.midpoint,
                     converged=res.converged and system.converged)


def game_value(players, coalition, system: WeightSystem,
               config: SolverConfig | None = None,
               grid: Grid = Grid(4096), table=None) -> GameEntry:
    """w(S) times the maxmin value of S versus the remaining singletons."""
    n = len(players)
    s = tuple(sorted(set(coalition)))
    if not s:
        raise ValueError("empty coalition")
    if config is None:
        config = default_game_config()
    structure = versus_singletons(s, n)
    if table is None:
        table = coalition_table(players, structure, grid)
    res = cutting_plane_value(_structure_problem(structure, system, table),
                              config)
    return _entry(system, s, res)


def full_game(players, system: WeightSystem,
              config: SolverConfig | None = None,
              grid: Grid = Grid(4096), jobs: int = 1) -> GameTable:
    """Game values for every nonempty coalition.

    Structures that coincide after canonical ordering (all singletons, for
    instance) are solved once.  Solves run serially; ``jobs`` is accepted
    and ignored, since worker threads did not pay.
    """
    n = len(players)
    if config is None:
        config = default_game_config()
    subsets = _nonempty_subsets(n)
    master = coalition_table(players, subsets, grid)

    structures = {}
    for s in subsets:
        structures.setdefault(versus_singletons(s, n), []).append(s)

    results = {structure: cutting_plane_value(
        _structure_problem(structure, system, master), config)
        for structure in sorted(structures)}
    entries = {frozenset(s): _entry(system, s, results[structure])
               for structure, members in structures.items()
               for s in members}
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
