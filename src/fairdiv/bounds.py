"""Certified bounds on the weighted maxmin value from a single maxsum result.

The maxsum value g(alpha) bounds the maxmin value from above.  From below,
the segment hull of the value vector u and the axis points (0,..,mu_q^w(C),
..,0) for q != argmax crosses the egalitarian diagonal at a closed-form
height, which is a certified lower bound at least min_j u_j.

The bound is evaluated on Python floats: numpy's per-call dispatch costs
more than the arithmetic on m entries.  Sums keep numpy's order
(``_pairwise_sum``), so every bound is bit-identical to its array form.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .partition import PvvResult


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


def lower_bound(pvv: PvvResult, totals) -> float:
    """Diagonal height of the hull of u and the axis points, closed form.

    ``totals`` are the whole-cake weighted values mu_j^w(C); they must be
    strictly positive.  The max coordinate index breaks ties low.
    """
    totals = np.asarray(totals, dtype=float)
    if totals.shape != pvv.u.shape:
        raise ValueError("totals must have one entry per coalition")
    if not totals.min() > 0.0:
        raise ValueError("whole-cake coalition values must be positive")
    u = pvv.u.tolist()
    h = u.index(max(u))
    top = u[h]
    gaps = [(top - x) / w for x, w in zip(u, totals.tolist())]
    del gaps[h]
    return top / (1.0 + _pairwise_sum(gaps))
