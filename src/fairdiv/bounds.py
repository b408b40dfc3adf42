"""Certified bounds on the weighted maxmin value from a single maxsum result.

The maxsum value g(alpha) bounds the maxmin value from above.  From below,
the segment hull of the value vector u and the axis points (0,..,mu_q^w(C),
..,0) for q != argmax crosses the egalitarian diagonal at a closed-form
height, which is a certified lower bound at least min_j u_j.
"""

from __future__ import annotations

import numpy as np

from .partition import PvvResult


def lower_bound(pvv: PvvResult, totals) -> float:
    """Diagonal height of the hull of u and the axis points, closed form.

    ``totals`` are the whole-cake weighted values mu_j^w(C); they must be
    strictly positive.  The max coordinate index breaks ties low.
    """
    totals = np.asarray(totals, dtype=float)
    u = pvv.u
    if totals.shape != u.shape:
        raise ValueError("totals must have one entry per coalition")
    if np.any(totals <= 0.0):
        raise ValueError("whole-cake coalition values must be positive")
    h = int(np.argmax(u))
    rest = np.arange(len(u)) != h
    denom = 1.0 + np.sum((u[h] - u[rest]) / totals[rest])
    return float(u[h] / denom)

