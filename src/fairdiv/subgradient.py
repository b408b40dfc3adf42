"""Projected subgradient solver for the weighted maxmin value.

The maxmin value is the minimum over the unit simplex of the convex function
g, whose subgradient at alpha is the maxsum value vector u.  Steps follow the
paper's diminishing rule clipped so that iterates stay strictly inside the
simplex; the mean-centered update then keeps the coordinate sum at one
without any general projection.  The rule's two constants are fixed: no
scale or clip setting was found that makes a capped run converge where
they do not.

Two stopping modes: bracket mode stops once the certified bounds pinch to
epsilon; equitable mode stops once the value vector coordinates agree to
epsilon and returns the best-spread iterate seen.

An iteration should cost about its maxsum oracle call.  Everything else in
it works on m numbers, where numpy's per-call dispatch costs more than the
arithmetic, so alpha and u are read into Python floats once per iterate for
the spread, the clipped step and the mean-centered update, and the diagonal
bound is evaluated on floats as well.  Sums keep numpy's pairwise order
(``partition._pairwise_sum``), so every iterate, bracket and trace row is
bit-identical to the array formulas.  Each iterate's diagonal bound is
evaluated once; with ``record_trace`` set, the result's ``trace`` holds one
``TraceRow`` per iterate, whose ``vbar`` is that same number.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import lower_bound
from .partition import (PvvResult, WeightedProblem, _pairwise_sum,
                        maxsum_partition)

_EXACT_STOP_TOL = 1e-12  # treat g == lb as landing on the optimum
#: the paper's step rule: the base step _STEP_SCALE/(t+1) vanishes while its
#: series diverges, and a step shrinks to (_CLIP-1)/_CLIP of the largest
#: step that keeps the iterate interior
_STEP_SCALE = 0.5
_CLIP = 10


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-3
    max_iterations: int = 50_000
    record_trace: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


def clipped_step(t: int, alpha: Sequence[float], u: Sequence[float]) -> float:
    """Base step at t, shrunk so the next iterate stays strictly interior.

    Only coordinates with u_i above the mean pull alpha toward the boundary;
    if there are none the base step is already safe.
    """
    s = _STEP_SCALE / (t + 1)
    ubar = _pairwise_sum(u) / len(u)
    ratios = [a / (x - ubar) for a, x in zip(alpha, u) if x > ubar]
    if not ratios:
        return s
    return min(s, (_CLIP - 1) / _CLIP * min(ratios))


def update_alpha(alpha: Sequence[float], u: Sequence[float],
                 s: float) -> np.ndarray:
    """Mean-centered subgradient step; preserves the coordinate sum."""
    ubar = _pairwise_sum(u) / len(u)
    out = [a - s * (x - ubar) for a, x in zip(alpha, u)]
    if not min(out) > 0.0:
        raise RuntimeError("step was not clipped enough to stay interior")
    total = _pairwise_sum(out)
    return np.array([a / total for a in out])


class TraceRow(NamedTuple):
    """One iterate of a recorded solve: the state at t (the bracket so far,
    g and the diagonal bound vbar at alpha, the value vector u) and the
    step chosen at t."""

    t: int
    ub: float
    lb: float
    g: float
    vbar: float
    step: float
    alpha: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    """A certified bracket [lower, upper] and the maxsum partition returned
    (``pvv``: its alpha, allocation and value vector).  ``trace`` holds one
    row per iterate when ``record_trace`` is set."""

    lower: float
    upper: float
    pvv: PvvResult
    iterations: int
    converged: bool
    trace: list[TraceRow] | None = None

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _solve(problem: WeightedProblem, config: SolverConfig,
           equitable: bool) -> SolveResult:
    totals = problem.totals
    alpha = np.full(problem.m, 1.0 / problem.m)
    ub, lb = math.inf, -math.inf
    best_pvv, best_spread = None, math.inf
    trace = [] if config.record_trace else None

    t = 0
    while True:
        pvv = maxsum_partition(problem, alpha)
        # the scalar work of an iterate runs on Python floats, read once
        a, u = pvv.alpha.tolist(), pvv.u.tolist()
        vbar = lower_bound(pvv, totals)
        ub, lb = min(ub, pvv.g_value), max(lb, vbar)
        spread = max(u) - min(u)
        if spread < best_spread:
            best_pvv, best_spread = pvv, spread
        if equitable:
            done = spread < config.epsilon
        else:
            done = (ub - lb < config.epsilon
                    or pvv.g_value - lb < _EXACT_STOP_TOL)
        step = clipped_step(t, a, u)
        if trace is not None:
            trace.append(TraceRow(t, ub, lb, pvv.g_value, vbar, step,
                                  pvv.alpha, pvv.u))
        if done or t >= config.max_iterations:
            break
        alpha = update_alpha(a, u, step)
        t += 1

    if equitable:
        ret = best_pvv
        converged = best_spread < config.epsilon
    else:
        ret = pvv
        converged = done
    return SolveResult(lower=lb, upper=ub, pvv=ret, iterations=t,
                       converged=converged, trace=trace)


def solve_value(problem: WeightedProblem,
                config: SolverConfig = SolverConfig()) -> SolveResult:
    """Shrink the certified bracket around the maxmin value to epsilon."""
    return _solve(problem, config, equitable=False)


def solve_partition(problem: WeightedProblem,
                    config: SolverConfig = SolverConfig()) -> SolveResult:
    """Drive the value vector to equal coordinates; returns the best-spread
    iterate so an unconverged run still yields the most equitable partition
    seen."""
    return _solve(problem, config, equitable=True)
