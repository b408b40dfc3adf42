"""Player preferences as densities on the cake [0,1], and their discretization.

A player's preference is a probability density on [0,1] (uniform, beta, or
piecewise constant).  A coalition values a piece by the best joint split of
it among its members, which makes the coalition density the pointwise max of
the member densities.  Everything downstream works on a uniform grid, so this
module also turns densities into per-cell masses.

A coalition's cell mass is its largest member mass.  Where the members
dominating at the cell's two edges differ, it is the larger of that and the
mass split at their crossing.  The mass is exact when dominance changes at
most once inside the cell, and otherwise a lower bound.  Rows are built by a
prefix walk in O(K) each: a row extends its prefix's largest member mass and
edge-dominant member by one player, ties going to the lowest index.

Beta densities and CDFs are closed forms from ``scipy.special``, one
expression for scalar and array arguments; root finds evaluate densities on
plain floats through ``_density_at``.  The crossing inside a split cell is
found by ``_brentq``, a port of scipy's Brent method that returns the same
floats: it is the library's one root find, and one call site did not
justify the 0.2 s and 23 MB that loading ``scipy.optimize`` costs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

#: absolute tolerance for "this density integrates to 1"
MASS_TOL = 1e-9

_EDGE_EPS = 1e-12  # evaluation offset to dodge infinite beta densities at 0/1

#: grid cells of a problem file that names none, and of the library's solves
DEFAULT_GRID_CELLS = 4096


@dataclass(frozen=True)
class DensitySpec:
    """A preference density on [0,1].  Use the factory classmethods."""

    kind: str
    a: float | None = None
    b: float | None = None
    breakpoints: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    @classmethod
    def uniform(cls) -> "DensitySpec":
        return cls(kind="uniform")

    @classmethod
    def beta(cls, a: float, b: float) -> "DensitySpec":
        return cls(kind="beta", a=float(a), b=float(b))

    @classmethod
    def piecewise(cls, breakpoints, values) -> "DensitySpec":
        """Piecewise-constant density; renormalized to total mass 1 on load."""
        bp = tuple(float(x) for x in breakpoints)
        vals = np.asarray(values, dtype=float)
        if len(bp) < 2 or len(vals) != len(bp) - 1:
            raise ValueError("need k+1 breakpoints for k values")
        _require_finite(bp, vals)
        widths = np.diff(bp)
        total = float(np.dot(vals, widths))
        if total <= 0:
            raise ValueError("piecewise density must have positive total mass")
        if abs(total - 1.0) > 1e-12:  # keep reloads bit-identical
            vals = vals / total
        return cls(kind="piecewise", breakpoints=bp,
                   values=tuple(float(v) for v in vals))

    def __post_init__(self):
        if self.kind == "uniform":
            pass
        elif self.kind == "beta":
            ab = np.array([self.a, self.b], dtype=float)  # None reads as NaN
            if not np.all(np.isfinite(ab) & (ab > 0)):
                raise ValueError("beta parameters must be finite and positive")
            if not np.isfinite(special.betaln(self.a, self.b)):
                raise ValueError("beta parameters out of range: log B(a, b), "
                                 "the normalizing constant, is not finite")
        elif self.kind == "piecewise":
            bp = np.asarray(self.breakpoints, dtype=float)
            vals = np.asarray(self.values, dtype=float)
            _require_finite(bp, vals)
            if bp[0] != 0.0 or bp[-1] != 1.0:
                raise ValueError("breakpoints must start at 0 and end at 1")
            if np.any(np.diff(bp) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            if np.any(vals < 0):
                raise ValueError("piecewise values must be nonnegative")
            if abs(float(np.dot(vals, np.diff(bp))) - 1.0) > MASS_TOL:
                raise ValueError("piecewise density must integrate to 1 "
                                 "(use DensitySpec.piecewise to normalize)")
        else:
            raise ValueError(f"unknown density kind {self.kind!r}")


def _require_finite(breakpoints, values) -> None:
    if not (np.all(np.isfinite(breakpoints)) and np.all(np.isfinite(values))):
        raise ValueError("breakpoints and values must be finite")


def density_eval(spec: DensitySpec, x):
    """Evaluate the density at x (scalar or array), x must lie in [0,1].

    A beta density is exp(xlogy(a-1, x) + xlog1py(b-1, -x) - betaln(a, b)),
    from ``scipy.special``: 0, finite or inf at x = 0 and 1 as a and b are
    above, at or below 1.  A scalar x goes through ``_density_at``.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("density argument outside [0,1]")
    with np.errstate(over="ignore"):  # inf right next to a pole at 0 or 1
        if np.ndim(x) == 0:
            return float(_density_at(spec)(float(xs)))
        if spec.kind == "beta":
            return _density_at(spec)(xs)
    if spec.kind == "uniform":
        return np.ones_like(xs)
    bp = np.asarray(spec.breakpoints)
    idx = np.clip(np.searchsorted(bp, xs, side="right") - 1,
                  0, len(spec.values) - 1)
    return np.asarray(spec.values)[idx]


def _density_at(spec: DensitySpec):
    """The density as a function of one float in [0,1], unchecked.

    Built once per spec and then called on plain floats, so a call pays no
    array conversion, range check or ``betaln``.  A piecewise density finds
    its piece with ``bisect_right``, which matches ``searchsorted(side=
    "right")``; the beta function is the same ``scipy.special`` expression
    that ``density_eval`` applies to arrays, so both agree bit for bit.
    """
    if spec.kind == "uniform":
        return lambda x: 1.0
    if spec.kind == "beta":
        am1, bm1 = spec.a - 1.0, spec.b - 1.0
        log_norm = special.betaln(spec.a, spec.b)
        return lambda x: np.exp(special.xlogy(am1, x)
                                + special.xlog1py(bm1, -x) - log_norm)
    bp, vals = spec.breakpoints, spec.values
    last = len(vals) - 1
    return lambda x: vals[min(max(bisect_right(bp, x) - 1, 0), last)]


def density_cdf(spec: DensitySpec, x):
    """Cumulative mass of [0, x]; closed form for every supported kind.

    A beta CDF is the regularized incomplete beta function
    ``scipy.special.betainc(a, b, x)``.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("density argument outside [0,1]")
    if spec.kind == "uniform":
        out = xs.copy()
    elif spec.kind == "beta":
        out = special.betainc(spec.a, spec.b, xs)
    else:
        bp = np.asarray(spec.breakpoints)
        vals = np.asarray(spec.values)
        cums = np.concatenate([[0.0], np.cumsum(vals * np.diff(bp))])
        idx = np.clip(np.searchsorted(bp, xs, side="right") - 1,
                      0, len(vals) - 1)
        out = cums[idx] + vals[idx] * (xs - bp[idx])
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform grid of cells partitioning [0,1]."""

    cell_count: int

    def __post_init__(self):
        if self.cell_count < 1:
            raise ValueError("cell_count must be positive")

    @cached_property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.cell_count + 1)


def cell_masses(spec: DensitySpec, grid: Grid) -> np.ndarray:
    """Per-cell masses as CDF differences; they sum to 1 up to rounding."""
    cdf = density_cdf(spec, grid.edges)
    return np.diff(cdf)


@dataclass(frozen=True)
class MeasureTable:
    """Per-cell masses for a set of coalitions.

    Rows are aligned with ``coalitions``; each coalition is a sorted tuple of
    0-based player indices.  Each mass integrates the coalition density, the
    max over members, over one cell: exactly when dominance changes at most
    once inside the cell, else from below.  ``coalition_table`` builds each
    row in O(K) from its prefix's row, keeping a stack of at most n levels;
    an edge tie goes to the lowest member index.
    """

    grid: Grid
    coalitions: tuple[tuple[int, ...], ...]
    masses: np.ndarray

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {c: i for i, c in enumerate(self.coalitions)}

    def row_index(self, coalition) -> int:
        key = tuple(sorted(coalition))
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"coalition {key} not in table") from None

    def mass_row(self, coalition) -> np.ndarray:
        return self.masses[self.row_index(coalition)]

    @cached_property
    def totals(self) -> np.ndarray:
        """Whole-cake value per coalition row."""
        return self.masses.sum(axis=1)

    def restrict(self, coalitions) -> "MeasureTable":
        """Sub-table with rows for the given coalitions, in the given order."""
        rows = [self.row_index(c) for c in coalitions]
        return MeasureTable(
            grid=self.grid,
            coalitions=tuple(tuple(sorted(c)) for c in coalitions),
            masses=self.masses[rows],
        )


def _split_cell_mass(specs, cdfs, ia, ib, k, grid) -> float:
    """Mass of cell k with player ia dominating left of the crossing and ib
    right of it.  ``cdfs[i]`` holds player i's CDF at the grid edges, so
    only the two CDFs at the crossing are evaluated here."""
    xl, xr = grid.edges[k], grid.edges[k + 1]
    split = _crossing_point(specs[ia], specs[ib], xl, xr)
    return (density_cdf(specs[ia], split) - cdfs[ia, k]) \
        + (cdfs[ib, k + 1] - density_cdf(specs[ib], split))


def _crossing_point(spec_a, spec_b, xl, xr) -> float:
    """Point in (xl, xr) where density a stops dominating density b.

    The root is found by ``_brentq``, an in-module port of Brent's method as
    ``scipy.optimize.brentq`` runs it: this is the library's one root find,
    and it did not justify loading ``scipy.optimize`` (about 0.2 s and
    23 MB on every ``import fairdiv``).  Most crossings meet a piecewise
    jump, where Brent falls back to bisection and evaluates both densities
    some fifty times, so they are evaluated as plain floats by
    ``_density_at``.  That function runs the same ``scipy.special`` calls in
    the same order as ``density_eval``, and a piecewise lookup with
    ``bisect_right`` lands on the same piece as ``searchsorted(side=
    "right")``, so every function value, and with it every iterate and split
    mass, is bit for bit what evaluating through ``density_eval`` gives.
    """
    lo = max(float(xl), _EDGE_EPS)
    hi = min(float(xr), 1.0 - _EDGE_EPS)
    density_a, density_b = _density_at(spec_a), _density_at(spec_b)

    def diff(x):
        return float(density_a(x) - density_b(x))

    with np.errstate(over="ignore"):  # inf right next to a pole at 0 or 1
        fa, fb = diff(lo), diff(hi)
        if np.isfinite(fa) and np.isfinite(fb) and fa > 0 > fb:
            return _brentq(diff, lo, hi, fa, fb)
    return 0.5 * (xl + xr)


_BRENT_XTOL = 1e-15
_BRENT_RTOL = 4 * 2.0 ** -52  # scipy's default: four machine epsilons
_BRENT_MAXITER = 100


def _brentq(f, xpre, xcur, fpre, fcur) -> float:
    """Root of f between xpre and xcur, where f is fpre and fcur, both
    finite, nonzero and of opposite signs (Brent 1973, ch. 4).

    A line-for-line port of the C ``brentq`` behind ``scipy.optimize.brentq``
    (xtol 1e-15, the default rtol and at most 100 iterations), in the same
    float operations in the same order, so it returns the same float.  Each
    step is the secant or inverse-quadratic step if it is short enough,
    else bisection, and at least ``delta``.  A NaN function value raises
    ``ValueError`` and no convergence in 100 iterations ``RuntimeError``,
    with scipy's messages.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        # scipy also asks for nonzero fpre and fcur; a zero fcur returns
        # below either way
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a zero denominator is an infinite or NaN step in C
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den
                        if den != 0 else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"The function value at x={xcur} is NaN; "
                             "solver cannot continue.")
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} "
                       "iterations.")


def coalition_table(players, subsets, grid: Grid) -> MeasureTable:
    """Build the measure table for the given coalitions of players.

    ``players`` is the list of DensitySpec, ``subsets`` a list of nonempty
    coalitions (iterables of 0-based player indices).  A cell mass is the
    largest member mass or, where the two edge-dominant members differ, the
    larger of that and the mass split at their crossing: exact when
    dominance changes at most once inside the cell, a lower bound otherwise.
    A split mass depends only on the ordered pair and the cell, so it is
    computed once per table however many rows contain the pair.  Each
    player's CDF is evaluated once, at every grid edge, for its cell masses
    and for the edge terms of its split masses, so a split cell evaluates
    only the two CDFs at its crossing.

    Rows are built by a prefix walk in O(K) each: the sorted member tuples
    are visited in lexicographic order, and a stack holds one level per
    member of the current prefix (at most n levels) with its largest member
    mass, edge-dominant density value and edge-dominant player.  A row
    extends its longest prefix on the stack by one member at a time; a
    later member takes an edge only with a strictly larger density, so ties
    go to the lowest index.  Rows come back in input order; duplicates and
    rows whose prefixes were not requested need nothing special.
    """
    subsets = [tuple(sorted(set(s))) for s in subsets]
    if not subsets:
        raise ValueError("need at least one coalition")
    n = len(players)
    for s in subsets:
        if len(s) == 0:
            raise ValueError("empty coalition")
        if s[0] < 0 or s[-1] >= n:
            raise ValueError(f"coalition {s} references unknown players")

    eval_edges = np.clip(grid.edges, _EDGE_EPS, 1.0 - _EDGE_EPS)
    edges_f = np.vstack([density_eval(p, eval_edges) for p in players])
    cdfs = np.vstack([density_cdf(p, grid.edges) for p in players])
    player_masses = np.diff(cdfs)

    masses = np.empty((len(subsets), grid.cell_count))
    split_masses: dict[tuple[int, int, int], float] = {}
    prefix: tuple[int, ...] = ()
    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for i in sorted(range(len(subsets)), key=subsets.__getitem__):
        s = subsets[i]
        common = 0
        for a, b in zip(prefix, s):
            if a != b:
                break
            common += 1
        del stack[common:]
        for p in s[common:]:
            if stack:
                largest, value, player = stack[-1]
                wins = edges_f[p] > value
                stack.append((np.maximum(largest, player_masses[p]),
                              np.where(wins, edges_f[p], value),
                              np.where(wins, p, player)))
            else:
                stack.append((player_masses[p], edges_f[p],
                              np.full(grid.cell_count + 1, p)))
        prefix = s

        row = masses[i]
        row[:] = stack[-1][0]
        player = stack[-1][2]
        split = np.flatnonzero(player[:-1] != player[1:])
        for ia, ib, k in zip(player[split].tolist(),
                             player[split + 1].tolist(), split.tolist()):
            mass = split_masses.get((ia, ib, k))
            if mass is None:
                mass = split_masses[ia, ib, k] = _split_cell_mass(
                    players, cdfs, ia, ib, k, grid)
            row[k] = max(mass, row[k])

    return MeasureTable(grid=grid, coalitions=tuple(subsets), masses=masses)
