"""Certified bounds on the weighted maxmin value from a single maxsum result.

The maxsum value g(alpha) bounds the maxmin value from above.  From below,
the segment hull of the value vector u and the axis points (0,..,mu_q^w(C),
..,0) for q != argmax crosses the egalitarian diagonal at a closed-form
height, which is a certified lower bound at least min_j u_j.

The bound is evaluated on Python floats: numpy's per-call dispatch costs
more than the arithmetic on m entries.  Sums keep numpy's order
(``partition._pairwise_sum``), so every bound is bit-identical to its
array form.
"""

from __future__ import annotations

import numpy as np

from .partition import PvvResult, _pairwise_sum


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
