"""Independent oracles and random-instance generators shared by the tests.

Everything here deliberately avoids the library's own solution paths: brute
force enumerates assignments, the argmax maxsum takes a column-wise argmax
over the full (m, cells) score matrix, the hull bound solves the linear system
directly, golden-section is a scalar convex minimizer, the cell LP solves the
maxmin problem over fractional cell assignments in one linear program, the
master-LP value comes from HiGHS rather than the library's own simplex,
Shapley values are averaged over explicit player orderings, and a beta cell
mass is a quadrature of ``scipy.stats``' density.
"""

import itertools
import math

import numpy as np
from scipy import integrate, stats
from scipy.optimize import linprog

from fairdiv import DensitySpec, Grid, weighted_problem


def beta_cell_mass_quad(a: float, b: float, lo: float, hi: float) -> float:
    """Mass of [lo, hi] under Beta(a, b) by adaptive Gauss-Kronrod
    quadrature of ``scipy.stats.beta.pdf`` (Boost's density, not the
    library's), for cells away from 0 and 1 where the density is smooth."""
    val, err = integrate.quad(stats.beta(a, b).pdf, lo, hi, epsabs=0.0,
                              epsrel=2e-14, limit=200)
    assert err <= 1e-13 * val
    return val


def random_density(rng) -> DensitySpec:
    if rng.random() < 0.5:
        a = float(rng.uniform(0.6, 12.0))
        b = float(rng.uniform(0.6, 12.0))
        return DensitySpec.beta(a, b)
    k = int(rng.integers(2, 6))
    inner = np.sort(rng.uniform(0.05, 0.95, size=k - 1))
    breakpoints = np.concatenate([[0.0], inner, [1.0]])
    values = rng.uniform(0.0, 3.0, size=k)
    values[rng.integers(0, k)] += 0.5  # keep total mass positive
    return DensitySpec.piecewise(breakpoints, values)


def random_structure(rng, n: int, max_m: int = 4):
    """Random partition of all n players into at most max_m coalitions."""
    m = int(rng.integers(1, min(max_m, n) + 1))
    owners = rng.integers(0, m, size=n)
    owners[rng.permutation(n)[:m]] = np.arange(m)  # every coalition nonempty
    return tuple(tuple(np.nonzero(owners == j)[0]) for j in range(m))


def random_problem(rng, max_players: int = 4, max_m: int = 4,
                   cells: int = 256, unit_weights: bool = False):
    n = int(rng.integers(2, max_players + 1))
    players = [random_density(rng) for _ in range(n)]
    structure = random_structure(rng, n, max_m)
    if unit_weights:
        weights = [1.0] * len(structure)
    else:
        weights = [float(rng.uniform(0.5, 3.0)) for _ in structure]
    return weighted_problem(players, structure, weights, Grid(cells))


def random_alpha(rng, m: int) -> np.ndarray:
    a = rng.dirichlet(np.ones(m))
    a = np.maximum(a, 1e-9)
    return a / a.sum()


def brute_force_maxsum(problem, alpha):
    """Best value of sum_j alpha_j u_j over every whole-cell assignment."""
    alpha = np.asarray(alpha, dtype=float)
    scores = alpha[:, None] * problem.cell_values
    K = problem.grid.cell_count
    cols = np.arange(K)
    best = -np.inf
    for assign in itertools.product(range(problem.m), repeat=K):
        val = scores[list(assign), cols].sum()
        if val > best:
            best = val
    return best


def argmax_maxsum(problem, alpha):
    """Maxsum partition by one argmax down the columns of the score matrix
    (lowest index wins ties): the assignment, g and the value vector u."""
    alpha = np.asarray(alpha, dtype=float)
    scores = alpha[:, None] * problem.cell_values
    assignment = scores.argmax(axis=0)
    cols = np.arange(problem.grid.cell_count)
    g = float(scores[assignment, cols].sum())
    u = np.bincount(assignment,
                    weights=problem.cell_values[assignment, cols],
                    minlength=problem.m)
    return assignment, g, u


def hull_lower_bound(u, totals):
    """Diagonal crossing of the hull of u and the axis points, by a direct
    linear solve of the defining system."""
    u = np.asarray(u, dtype=float)
    totals = np.asarray(totals, dtype=float)
    m = len(u)
    h = int(np.argmax(u))
    A = np.zeros((m + 1, m + 1))
    b = np.zeros(m + 1)
    # rows: the hull point must sit on the diagonal at height x (last var)
    for q in range(m):
        A[q, h] = u[q]
        if q != h:
            A[q, q] = totals[q]
        A[q, m] = -1.0
    A[m, :m] = 1.0
    b[m] = 1.0
    sol = np.linalg.solve(A, b)
    return float(sol[m])


def golden_section_min(fun, lo: float, hi: float, iters: int = 200):
    """Scalar minimizer for a convex function; returns (argmin, min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def cell_lp_value(problem) -> float:
    """Maxmin value as one LP over fractional cell assignments x[j, k] >= 0:
    maximize t subject to sum_k v[j, k] x[j, k] >= t for every coalition j
    and sum_j x[j, k] = 1 for every cell k.  Meant for small grids."""
    v = problem.cell_values
    m, K = v.shape
    n = m * K  # x in row-major (j, k) order, then t
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    a_ub = np.zeros((m, n + 1))
    a_ub[:, n] = 1.0
    a_eq = np.zeros((K, n + 1))
    for j in range(m):
        a_ub[j, j * K:(j + 1) * K] = -v[j]
        a_eq[:, j * K:(j + 1) * K] = np.eye(K)
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq,
                  b_eq=np.ones(K), bounds=[(0.0, None)] * n + [(None, None)],
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"cell LP failed: {res.message}")
    return float(res.x[n])


def master_lp_value(columns) -> float:
    """min over the simplex of max_i <c_i, alpha> for the rows c_i of
    ``columns``, as one HiGHS LP in (alpha, z)."""
    n, m = columns.shape
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    a_ub = np.hstack([columns, -np.ones((n, 1))])
    a_eq = np.ones((1, m + 1))
    a_eq[0, m] = 0.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq,
                  b_eq=np.ones(1), bounds=[(0.0, None)] * m + [(None, None)],
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"master LP failed: {res.message}")
    return float(res.fun)


def shapley_by_permutations(eta, n: int) -> np.ndarray:
    """Average marginal contribution over all player orderings."""
    phi = np.zeros(n)
    count = 0
    for order in itertools.permutations(range(n)):
        seen = frozenset()
        for i in order:
            before = eta(seen) if seen else 0.0
            after = eta(seen | {i})
            phi[i] += after - before
            seen = seen | {i}
        count += 1
    return phi / count
