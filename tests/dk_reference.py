"""The masked d_K^2 transform that ``models.dK_transform`` replaced.

Every node takes the Taylor series or the closed form through boolean
masks, and at K > 0 ``np.cos`` runs on every closed-form node to pick
between log1p(-2 sin^2(x/2)) and log(cos x).  The library's fast paths
(d^2 at K = 0, no masks when every node falls on one branch, cos x only
near cos x = 1/2 and beyond) are held to it bit for bit.
"""

import math

import numpy as np

from kahlerlab.errors import DomainExceeded
from kahlerlab.models import DK_MARGIN

SERIES_CUT = 1e-4


def dK_transform_masked(d, K: float):
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    if K > 0:
        cap = math.pi / math.sqrt(2.0 * K)
        if np.any(d > cap - DK_MARGIN):
            raise DomainExceeded(
                f"d={float(np.max(d)):.6g} exceeds cap {cap:.6g} for K={K}")
    small = np.abs(K) * d * d < SERIES_CUT
    out = np.empty_like(d)
    d2 = d * d
    y = K * d2[small]
    out[small] = d2[small] * (1.0 + y * (1.0 / 12.0
                                         + y * (1.0 / 90.0 + y * (17.0 / 10080.0))))
    big = ~small
    if np.any(big):
        x = d[big] * math.sqrt(abs(K) / 2.0)
        if K > 0:
            cos = np.cos(x)
            out[big] = -(4.0 / K) * np.where(
                cos >= 0.5, np.log1p(-2.0 * np.sin(x / 2.0) ** 2), np.log(cos))
        else:
            out[big] = (4.0 / -K) * np.log1p(2.0 * np.sinh(x / 2.0) ** 2)
    return out if out.ndim else float(out)
