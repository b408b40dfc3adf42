"""Player preferences as densities on the cake [0,1], and their discretization.

A player's preference is a probability density on [0,1] (uniform, beta, or
piecewise constant).  A uniform density is read as one piece of height 1,
so the evaluators know two kinds, beta and piecewise.  A coalition values a
piece by the best joint split of it among its members, which makes the
coalition density the pointwise max of the member densities.  Everything
downstream works on a uniform grid, so this module also turns densities
into per-cell masses.

A coalition's cell mass is its largest member mass.  Where the members
dominating at the cell's two edges differ, it is the larger of that and the
mass split at their crossing.  The mass is exact when dominance changes at
most once inside the cell, and otherwise a lower bound.  Edge dominance is
read off rank runs: one stable sort per table finds the R runs of grid
edges over which the ranking of the players' edge densities is constant
(only players that share a coalition are ranked), and on a run every
coalition has one edge-dominant member, ties going to the lowest index.
Rows are built by a prefix walk: a row extends its prefix's largest member
mass by one player (one K-wide maximum) and its per-run dominant member
(O(R)), so split cells are found without visiting the K+1 edges.

Beta densities and CDFs are closed forms from ``scipy.special``, one
expression for scalar and array arguments.  A player's cell masses
(``cell_masses``) are CDF differences, except for the cells of a
non-integer beta at least 32 cells from 0 and 1: there ``betainc`` costs
about 300 ns per edge, and each cell integrates the Taylor series of the
density at its left edge instead, from a three-term recurrence.  A
piecewise density finds the piece holding x among its interior
breakpoints, by ``bisect_right`` for a float and ``_pieces`` for an array,
which agree.  Root finds and split cells evaluate densities and CDFs on
plain floats through ``_density_at`` and ``_cdf_at``.  The crossing inside
a split cell is found by ``_brentq``, a port of scipy's Brent method that
returns the same floats: it is the library's one root find, and one call
site did not justify the 0.2 s and 23 MB that loading ``scipy.optimize``
costs.
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
    """A preference density on [0,1].  Use the factory classmethods.

    ``uniform()`` keeps the kind ``"uniform"`` but stores its one piece,
    ``breakpoints=(0.0, 1.0)`` and ``values=(1.0,)``, and is evaluated as a
    piecewise density; a uniform spec with any other piece is rejected.
    """

    kind: str
    a: float | None = None
    b: float | None = None
    breakpoints: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    @classmethod
    def uniform(cls) -> "DensitySpec":
        return cls(kind="uniform", breakpoints=(0.0, 1.0), values=(1.0,))

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
            if (self.breakpoints, self.values) != ((0.0, 1.0), (1.0,)):
                raise ValueError("a uniform density is one piece of height 1 "
                                 "on [0, 1]")
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


def _unit_args(x) -> np.ndarray:
    """x as a float array, checked to lie in [0,1]."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("density argument outside [0,1]")
    return xs


def _pieces(spec: DensitySpec, xs: np.ndarray) -> np.ndarray:
    """Index of the piece holding each x in [0,1]: the count of interior
    breakpoints at or left of x, as ``bisect_right`` finds it for a float.
    x = 1 and NaN fall in the last piece."""
    return np.searchsorted(spec.breakpoints[1:-1], xs, side="right")


def density_eval(spec: DensitySpec, x):
    """Evaluate the density at x (scalar or array), x must lie in [0,1].

    A beta density is exp(xlogy(a-1, x) + xlog1py(b-1, -x) - betaln(a, b)),
    from ``scipy.special``: 0, finite or inf at x = 0 and 1 as a and b are
    above, at or below 1.  A scalar x goes through ``_density_at``.
    """
    xs = _unit_args(x)
    with np.errstate(over="ignore"):  # inf right next to a pole at 0 or 1
        if np.ndim(x) == 0:
            return float(_density_at(spec)(float(xs)))
        if spec.kind == "beta":
            return _density_at(spec)(xs)
    return np.asarray(spec.values)[_pieces(spec, xs)]


def _density_at(spec: DensitySpec):
    """The density as a function of one float in [0,1], unchecked.

    Built once per spec and then called on plain floats, so a call pays no
    array conversion, range check or ``betaln``.  A piecewise density finds
    its piece with ``bisect_right`` over the interior breakpoints, which
    matches ``_pieces``; the beta function is the same ``scipy.special``
    expression that ``density_eval`` applies to arrays, so both agree bit
    for bit.
    """
    if spec.kind == "beta":
        am1, bm1 = spec.a - 1.0, spec.b - 1.0
        log_norm = special.betaln(spec.a, spec.b)
        return lambda x: np.exp(special.xlogy(am1, x)
                                + special.xlog1py(bm1, -x) - log_norm)
    inner, vals = spec.breakpoints[1:-1], spec.values
    return lambda x: vals[bisect_right(inner, x)]


def density_cdf(spec: DensitySpec, x):
    """Cumulative mass of [0, x]; closed form for every supported kind.

    A beta CDF is the regularized incomplete beta function
    ``scipy.special.betainc(a, b, x)``.  A scalar x goes through ``_cdf_at``.
    """
    xs = _unit_args(x)
    if np.ndim(x) == 0:
        return float(_cdf_at(spec)(float(xs)))
    if spec.kind == "beta":
        return special.betainc(spec.a, spec.b, xs)
    i = _pieces(spec, xs)
    bp = np.asarray(spec.breakpoints)
    return (_cumulative_masses(spec)[i]
            + np.asarray(spec.values)[i] * (xs - bp[i]))


def _cumulative_masses(spec: DensitySpec) -> np.ndarray:
    """A piecewise density's mass left of each breakpoint."""
    return np.concatenate([[0.0], np.cumsum(
        np.asarray(spec.values) * np.diff(spec.breakpoints))])


def _cdf_at(spec: DensitySpec):
    """The CDF as a function of one float in [0,1], unchecked.

    Built once per spec, like ``_density_at``: a beta CDF is ``betainc`` on
    the float, and a piecewise one adds to the cumulative masses, computed
    here once, in the same float operations as ``density_cdf``, so both
    agree bit for bit.
    """
    if spec.kind == "beta":
        a, b = spec.a, spec.b
        return lambda x: special.betainc(a, b, x)
    bp, vals = spec.breakpoints, spec.values
    inner = bp[1:-1]
    cums = _cumulative_masses(spec).tolist()

    def cdf(x):
        i = bisect_right(inner, x)
        return cums[i] + vals[i] * (x - bp[i])
    return cdf


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


#: a cell of a non-integer beta at least this many cells from 0 and from 1
#: takes its mass from the density's Taylor series at its left edge
_SERIES_MARGIN = 32
#: terms a series cell may take before it falls back to ``betainc``
_SERIES_TERMS = 30
#: a series cell stops once two consecutive terms sum below this share of its
#: mass
_SERIES_TOL = 2.0 ** -60
#: a series cell whose terms' absolute values sum above this multiple of its
#: mass lost digits to cancellation and falls back to ``betainc``
_SERIES_SPREAD = 16.0
#: series cells summed at once, so that the loop's arrays stay in cache
_SERIES_CHUNK = 4096
#: a density below the smallest normal float has underflowed
_NORMAL = float(np.finfo(float).tiny)


def cell_masses(spec: DensitySpec, grid: Grid) -> np.ndarray:
    """Per-cell masses of one player; they sum to 1 up to rounding.

    A piecewise, uniform or integer-shape beta density takes CDF
    differences at the grid edges.  So does every cell of a non-integer
    beta within ``_SERIES_MARGIN`` (32) cells of 0 or 1.  Each other cell
    [x0, x0 + h] of a non-integer beta integrates the Taylor series of the
    density at x0 (``_series_masses``), whose radius min(x0, 1 - x0) is at
    least 32 h; ``betainc`` runs only at the edges of the 64 end cells and
    of the series cells that fall back (``_series_masses``: underflow, no
    convergence within 30 terms, or cancellation).  At 32,768 cells
    ``betainc`` costs about 300 ns per edge at non-integer shapes and
    40-50 ns at integer ones (Boost's finite sum), against 60-85 ns per
    cell for the series and 15 ns per edge for the density, so integer
    shapes keep it.  The series cells are scaled together so that they
    hold the CDF difference over their span, less the fallback cells in
    it: ``betaln``, which normalizes the density, is up to 1e-12 off at
    large shapes (9.2e-13 at Beta(1000.5, 2.5)), and the CDF is not.
    Every mass is then within 2e-14 of its CDF difference on the tested
    shapes, and the largest gap (8.8e-15, Beta(50.5, 30.2)) is an error
    of ``betainc`` itself: the series mass is within 1e-18 of the exact
    one there.
    """
    edges, cells = grid.edges, grid.cell_count
    lo, hi = _SERIES_MARGIN, cells - _SERIES_MARGIN
    if (spec.kind != "beta" or lo >= hi
            or (float(spec.a).is_integer() and float(spec.b).is_integer())):
        return np.diff(density_cdf(spec, edges))
    f0 = density_eval(spec, edges[lo:hi])
    masses = np.full(cells, np.nan)
    total = _series_masses(spec, edges[lo:hi], edges[lo + 1:hi + 1], f0,
                           masses[lo:hi])

    # the end cells and the fallback cells take CDF differences
    redo = np.flatnonzero(np.isnan(masses))
    at = np.union1d(redo, redo + 1)
    cdf = density_cdf(spec, edges[at])
    left = np.searchsorted(at, redo)
    redone = cdf[left + 1] - cdf[left]
    if total > 0.0:
        span = cdf[np.searchsorted(at, hi)] - cdf[np.searchsorted(at, lo)]
        fell_back = redone[(redo >= lo) & (redo < hi)].sum()
        masses[lo:hi] *= max(span - fell_back, 0.0) / total
    masses[redo] = redone
    return masses


def _series_masses(spec: DensitySpec, x0: np.ndarray, x1: np.ndarray,
                   f0: np.ndarray, out: np.ndarray) -> float:
    """Beta masses of the cells [x0, x1] from the Taylor series of the
    density f at x0, where f is f0, written to ``out``; ``out`` keeps what
    it holds (NaN, from the caller) where a cell falls back.  Returns the
    sum of the masses written.

    The density solves x (1 - x) f' = [(a - 1)(1 - x) - (b - 1) x] f, so its
    coefficients f = sum e_n (x - x0)^n follow the three-term recurrence

        p0 (n + 1) e_{n+1} = (q0 - p1 n) e_n + (q1 + n - 1) e_{n-1},

    e_0 = f0, e_{-1} = 0, p0 = x0 (1 - x0), p1 = 1 - 2 x0, q0 = (a - 1)(1 -
    x0) - (b - 1) x0 and q1 = 2 - a - b, and the mass is sum t_n h with t_n
    = e_n h^n / (n + 1) and h = x1 - x0.  All cells are summed at once,
    ``_SERIES_CHUNK`` at a time, and each stops once two consecutive terms
    sum below ``_SERIES_TOL`` of its sum (one term is not enough: at the
    mode of a symmetric density every odd term is 0).  At 32,768 cells
    that takes 6 to 13 terms, mostly 7 or 8, and up to 28 at Beta(200.3,
    150.7).  A cell falls back if its density underflowed (below the
    smallest normal float), if it has not stopped within ``_SERIES_TERMS``
    (30) terms, or if its terms' absolute values sum above
    ``_SERIES_SPREAD`` (16) times its sum, which bounds what cancellation
    can cost; no ratio is taken, so no 0/0 occurs.
    """
    written, q1 = 0.0, 2.0 - spec.a - spec.b
    with np.errstate(all="ignore"):  # a diverging cell just falls back
        for start in range(0, x0.size, _SERIES_CHUNK):
            chunk = slice(start, start + _SERIES_CHUNK)
            cell = np.flatnonzero(f0[chunk] >= _NORMAL) + start
            x, t = x0[cell], f0[cell]
            width = x1[cell] - x
            hp = width / (x * (1.0 - x))
            # growth = h (q0 - p1 (n - 1)) / p0 at term n, from n = 1
            growth = hp * ((spec.a - 1.0) * (1.0 - x) - (spec.b - 1.0) * x)
            drop = hp * (1.0 - 2.0 * x)
            curve = hp * width
            t_prev = np.zeros_like(t)
            total, spread, last = t.copy(), t.copy(), t.copy()
            for n in range(1, _SERIES_TERMS):
                # t_n = growth t_{n-1} / (n + 1)
                #       + curve (q1 + n - 2)(n - 1) / (n (n + 1)) t_{n-2}
                nxt = growth * t
                nxt /= n + 1.0
                nxt += (curve * t_prev) * ((q1 + n - 2.0) * (n - 1.0)
                                           / (n * (n + 1.0)))
                total += nxt
                size = np.abs(nxt)
                spread += size
                done = size + last <= _SERIES_TOL * total
                if done.any():
                    ok = done & (spread <= _SERIES_SPREAD * total)
                    mass = width[ok] * total[ok]
                    out[cell[ok]] = mass
                    written += mass.sum()
                    keep = ~done
                    (cell, width, growth, drop, curve, t, nxt, total, spread,
                     size) = (v[keep] for v in (
                         cell, width, growth, drop, curve, t, nxt, total,
                         spread, size))
                    if not cell.size:
                        break
                growth -= drop
                last, t_prev, t = size, t, nxt
    return written


@dataclass(frozen=True)
class MeasureTable:
    """Per-cell masses for a set of coalitions.

    Rows are aligned with ``coalitions``; each coalition is a sorted tuple of
    0-based player indices.  Each mass integrates the coalition density, the
    max over members, over one cell: exactly when dominance changes at most
    once inside the cell, else from below.  ``coalition_table`` builds each
    row from its prefix's row, keeping a stack of at most n levels: one
    K-wide maximum for the member masses, and O(R) work for the edge
    dominance over the R rank runs of the grid edges; an edge tie goes to
    the lowest member index.
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

    def restrict(self, coalitions) -> "MeasureTable":
        """Sub-table with rows for the given coalitions, in the given order."""
        rows = [self.row_index(c) for c in coalitions]
        return MeasureTable(
            grid=self.grid,
            coalitions=tuple(tuple(sorted(c)) for c in coalitions),
            masses=self.masses[rows],
        )


def _split_cell_mass(specs, cdf_at, ia, ib, k, grid) -> float:
    """Mass of cell k with player ia dominating left of the crossing and ib
    right of it.  ``cdf_at[i]`` is player i's ``_cdf_at`` (indexed by
    player, as a mapping or a list): the four CDFs, at the crossing and at
    the cell's edges, are evaluated on plain floats, which give the bits of
    the array evaluation at the edges."""
    xl, xr = float(grid.edges[k]), float(grid.edges[k + 1])
    split = _crossing_point(specs[ia], specs[ib], xl, xr)
    return (cdf_at[ia](split) - cdf_at[ia](xl)) \
        + (cdf_at[ib](xr) - cdf_at[ib](split))


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


def _rank_runs(players, ranked, grid: Grid
               ) -> tuple[np.ndarray, np.ndarray]:
    """Runs of grid edges over which the ``ranked`` players' densities at
    the edges keep their ranking.

    Returns the first edge of each run and the ranking on each: ``order[j,
    r]`` is the player ranked j-th on run r, by decreasing edge density
    with ties to the lowest index (a stable sort).  So on a run every
    coalition of ranked players has one edge-dominant member, its first
    member in that ranking, which is what an argmax over the members gives
    at each edge of the run.  The edge densities are needed for nothing
    else, so they do not outlive the call.
    """
    eval_edges = np.clip(grid.edges, _EDGE_EPS, 1.0 - _EDGE_EPS)
    edges_f = np.empty((len(ranked), grid.cell_count + 1))
    for row, p in zip(edges_f, ranked):
        row[:] = density_eval(players[p], eval_edges)
    order = np.argsort(-edges_f, axis=0, kind="stable")
    changed = np.any(order[:, 1:] != order[:, :-1], axis=0)
    starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
    return starts, np.asarray(ranked, dtype=np.intp)[order[:, starts]]


def coalition_table(players, subsets, grid: Grid) -> MeasureTable:
    """Build the measure table for the given coalitions of players.

    ``players`` is the list of DensitySpec, ``subsets`` a list of nonempty
    coalitions (iterables of 0-based player indices).  A cell mass is the
    largest member mass or, where the two edge-dominant members differ, the
    larger of that and the mass split at their crossing: exact when
    dominance changes at most once inside the cell, a lower bound otherwise.
    A split mass depends only on the ordered pair and the cell, so it is
    computed once per table however many rows contain the pair.  The cell
    masses of each player a row names are computed once (``cell_masses``:
    CDF differences, or the Taylor series of a non-integer beta density),
    and a
    split cell evaluates its four CDFs, at its crossing and its two edges,
    on plain floats (``_cdf_at``), which give the bits of the array CDF at
    the edges.  A player no row names is not evaluated at all.

    Edge dominance is read off rank runs (``_rank_runs``): one stable sort
    per table of the edge densities of the players that share a row with
    another splits the K+1 edges into R runs of constant ranking, and on
    each run every coalition has one edge-dominant member.  A split cell is
    the cell just left of a run boundary where a row's dominant member
    changes.  On the 255x32,768 ``wide-table`` instances R is 43 to 52.

    Rows are built by a prefix walk: the sorted member tuples are visited in
    lexicographic order, and a stack holds one level per member of the
    current prefix (at most n levels) with its largest member mass and, per
    run, its edge-dominant member.  A row extends its longest prefix on the
    stack by one member at a time, at the cost of one K-wide ``np.maximum``
    into a buffer allocated once per depth, and O(R) dominance work: the
    dominant member has the smallest rank, ties going to the lowest index.
    Rows come back in input order; duplicates and rows whose prefixes were
    not requested need nothing special.
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

    # only members of a coalition of two or more can dominate one another
    ranked = sorted({p for s in subsets if len(s) > 1 for p in s})
    starts, order = _rank_runs(players, ranked, grid)
    named = sorted({p for s in subsets for p in s})
    cdf_at = {p: _cdf_at(players[p]) for p in named}
    player_masses = {p: cell_masses(players[p], grid) for p in named}

    # rank_code[p, r] = n * (p's rank on run r) + p, so the smallest code
    # over a coalition's members names its edge-dominant member on run r; an
    # unranked player, only ever alone, keeps the constant code p
    rank_code = np.repeat(np.arange(n)[:, None], len(starts), axis=1)
    rank_code[order, np.arange(len(starts))] = (
        n * np.arange(len(ranked))[:, None] + order)
    split_cells = starts[1:] - 1  # each just left of a run boundary

    masses = np.empty((len(subsets), grid.cell_count))
    depth_buffers = np.empty((max(map(len, subsets)) - 1, grid.cell_count))
    split_masses: dict[tuple[int, int, int], float] = {}
    prefix: tuple[int, ...] = ()
    stack: list[tuple[np.ndarray, np.ndarray]] = []
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
                largest, code = stack[-1]
                stack.append((np.maximum(largest, player_masses[p],
                                         out=depth_buffers[len(stack) - 1]),
                              np.minimum(code, rank_code[p])))
            else:
                stack.append((player_masses[p], rank_code[p]))
        prefix = s

        row = masses[i]
        row[:] = stack[-1][0]
        dominant = stack[-1][1] % n
        change = np.flatnonzero(dominant[:-1] != dominant[1:])
        for ia, ib, k in zip(dominant[change].tolist(),
                             dominant[change + 1].tolist(),
                             split_cells[change].tolist()):
            mass = split_masses.get((ia, ib, k))
            if mass is None:
                mass = split_masses[ia, ib, k] = _split_cell_mass(
                    players, cdf_at, ia, ib, k, grid)
            row[k] = max(mass, row[k])

    return MeasureTable(grid=grid, coalitions=tuple(subsets), masses=masses)
