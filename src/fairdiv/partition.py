"""Weighted maxsum partitions of the gridded cake.

For coefficients alpha on the unit simplex, assigning every cell to a
coalition maximizing alpha_j mu_j^w(cell), where mu_j^w is the exact cell
mass over w_j, solves the maxsum problem max sum_j alpha_j mu_j^w(B_j).  The
value vector u is both a point on the Pareto border of the partition range
and a subgradient of g(alpha) = sum over cells of max_j alpha_j mu_j^w(cell).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import Grid, MeasureTable, coalition_table

#: how far off the simplex an alpha may be before it is rejected
SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class WeightedProblem:
    """A coalition structure with weights over a shared measure table.

    The structure is the table's rows (``table.coalitions``): m
    pairwise-disjoint coalitions, each a sorted tuple of 0-based player
    ids, and ``weights`` holds one finite positive weight per row.  Cell
    values are the table's exact masses over the weights, and the totals
    below sum them, so both are exactly consistent with g evaluations.
    """

    table: MeasureTable
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.structure) < 1:
            raise ValueError("need at least one coalition")
        if len(self.weights) != len(self.structure):
            raise ValueError("one weight per coalition required")
        if not all(0.0 < w < math.inf for w in self.weights):  # NaN fails too
            raise ValueError("weights must be finite and strictly positive")
        seen: set[int] = set()
        for s in self.structure:
            if seen & set(s):
                raise ValueError("coalitions must be pairwise disjoint")
            seen |= set(s)

    @property
    def structure(self) -> tuple[tuple[int, ...], ...]:
        return self.table.coalitions

    @property
    def m(self) -> int:
        return len(self.structure)

    @property
    def grid(self) -> Grid:
        return self.table.grid

    @cached_property
    def cell_values(self) -> np.ndarray:
        """Exact weighted mass mu_j(cell) / w_j, shape (m, cells)."""
        w = np.asarray(self.weights, dtype=float)
        return self.table.masses / w[:, None]

    @cached_property
    def totals(self) -> np.ndarray:
        """mu_j^w of the whole cake, summed over the cell values."""
        return self.cell_values.sum(axis=1)


def weighted_problem(players, structure, weights, grid: Grid) -> WeightedProblem:
    """Convenience builder: measure the coalitions, then wrap them up."""
    return WeightedProblem(coalition_table(players, structure, grid),
                           tuple(float(w) for w in weights))


@dataclass(frozen=True)
class Allocation:
    """Assignment of every grid cell to one coalition index."""

    grid: Grid
    assignment: np.ndarray

    def intervals(self) -> dict[int, list[tuple[float, float]]]:
        """Merged [a,b] intervals per coalition index."""
        assign = self.assignment
        cuts = np.flatnonzero(np.diff(assign)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [len(assign)]))
        edges = self.grid.edges
        out: dict[int, list[tuple[float, float]]] = {}
        for j, a, b in zip(assign[starts].tolist(), edges[starts].tolist(),
                           edges[ends].tolist()):
            out.setdefault(j, []).append((a, b))
        return out


@dataclass(frozen=True)
class PvvResult:
    """Maxsum partition at alpha: the allocation, its value vector u, and g."""

    alpha: np.ndarray
    allocation: Allocation
    u: np.ndarray
    g_value: float

    @property
    def spread(self) -> float:
        return float(self.u.max() - self.u.min())


def _pairwise_sum(xs: Sequence[float]) -> float:
    """Sum in the order ``np.add.reduce`` takes on a contiguous float64
    vector: one running sum below 8 entries, up to 128 entries 8 strided
    running sums combined pairwise and then the tail, and above that the
    sum of the two halves (the first a multiple of 8 long)."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    lanes = list(xs[:8])
    body = n - n % 8
    for i in range(8, body, 8):
        for j in range(8):
            lanes[j] += xs[i + j]
    total = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
             + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
    for x in xs[body:]:
        total += x
    return total


def _check_alpha(alpha, m: int) -> np.ndarray:
    """alpha as a float array, checked to lie on the simplex.  Its m entries
    are read as Python floats: numpy's per-call dispatch costs more than
    the comparisons, and the pairwise sum equals ``a.sum()`` bit for bit."""
    a = np.asarray(alpha, dtype=float)
    if a.shape != (m,):
        raise ValueError(f"alpha must have {m} components")
    xs = a.tolist()
    if not all(x >= 0.0 for x in xs):  # NaN fails too
        raise ValueError("alpha components must be nonnegative")
    if abs(_pairwise_sum(xs) - 1.0) > SIMPLEX_TOL:
        raise ValueError("alpha must sum to 1")
    return a


def maxsum_partition(problem: WeightedProblem, alpha) -> PvvResult:
    """Cell-wise argmax of alpha_j mu_j^w(cell), as a running max over the
    m rows: a row takes a cell only with a strictly larger score, so the
    lowest index wins ties."""
    alpha = _check_alpha(alpha, problem.m)
    values = problem.cell_values
    best = alpha[0] * values[0]
    best_values = values[0].copy()
    assignment = np.zeros(problem.grid.cell_count, dtype=np.intp)
    score = np.empty_like(best)
    wins = np.empty(best.shape, dtype=bool)
    for j in range(1, problem.m):
        np.multiply(alpha[j], values[j], out=score)
        np.greater(score, best, out=wins)
        np.copyto(best, score, where=wins)
        np.copyto(best_values, values[j], where=wins)
        np.copyto(assignment, j, where=wins)
    g = float(best.sum())
    u = np.bincount(assignment, weights=best_values, minlength=problem.m)
    return PvvResult(alpha=alpha,
                     allocation=Allocation(problem.grid, assignment),
                     u=u, g_value=g)

