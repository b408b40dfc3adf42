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
coalition has one edge-dominant member, ties going to the lowest index.  Rows are built by a prefix walk: a row extends its
prefix's largest member mass by one player (one K-wide maximum) and its
per-run dominant member (O(R)), so split cells are found without visiting
the K+1 edges.

Beta densities and CDFs are closed forms from ``scipy.special``, one
expression for scalar and array arguments.  A piecewise density finds the
piece holding x among its interior breakpoints, by ``bisect_right`` for a
float and ``_pieces`` for an array, which agree.  Root finds and split cells
evaluate densities and CDFs on plain floats through ``_density_at`` and
``_cdf_at``.  The crossing inside a split cell is found by ``_brentq``, a
port of scipy's Brent method that returns the same floats: it is the
library's one root find, and one call site did not justify the 0.2 s and
23 MB that loading ``scipy.optimize`` costs.
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


def _split_cell_mass(specs, cdf_at, cdfs, ia, ib, k, grid) -> float:
    """Mass of cell k with player ia dominating left of the crossing and ib
    right of it.  ``cdfs[i]`` holds player i's CDF at the grid edges and
    ``cdf_at[i]`` is its ``_cdf_at`` (both indexed by player, as a mapping
    or an array), so only the two CDFs at the crossing are evaluated here,
    on a plain float."""
    xl, xr = grid.edges[k], grid.edges[k + 1]
    split = _crossing_point(specs[ia], specs[ib], xl, xr)
    return (cdf_at[ia](split) - cdfs[ia][k]) \
        + (cdfs[ib][k + 1] - cdf_at[ib](split))


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
    computed once per table however many rows contain the pair.  The CDF
    of each player a row names is evaluated once, at every grid edge, for
    its cell masses and for the edge terms of its split masses, so a split
    cell evaluates only the two CDFs at its crossing, on plain floats
    (``_cdf_at``).  A player no row names is not evaluated at all.

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
    cdfs = {p: density_cdf(players[p], grid.edges) for p in named}
    cdf_at = {p: _cdf_at(players[p]) for p in named}
    player_masses = {p: np.diff(cdfs[p]) for p in named}

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
                    players, cdf_at, cdfs, ia, ib, k, grid)
            row[k] = max(mass, row[k])

    return MeasureTable(grid=grid, coalitions=tuple(subsets), masses=masses)
