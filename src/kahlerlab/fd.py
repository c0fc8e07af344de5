"""Finite differencing kernels: central stencils with one Richardson step.

All evaluators are batched: ``f`` maps an ``(P, m)`` array of real
coordinate points to an array whose leading axis is ``P`` (trailing shape
arbitrary, e.g. scalar potentials or matrix-valued metric fields).  The
Richardson combination ``(4 D(h/2) - D(h)) / 3`` upgrades the second-order
central stencils to fourth order.  ``laplacian_2d_combine`` keeps the plain
h/2 level where the two levels disagree by more than truncation explains: at
a kink that only the h-stencil reaches, Richardson's negative weight turns
the kink's positive mass into a large negative value.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hessian",
    "laplacian_2d",
    "laplacian_2d_combine",
    "laplacian_2d_nodes",
]


def _eval_at_offsets(f, x, offsets):
    """Evaluate f at x + offset for every offset; returns (Q, P, ...)."""
    P, m = x.shape
    Q = len(offsets)
    pts = (x[None, :, :] + np.asarray(offsets)[:, None, :]).reshape(Q * P, m)
    vals = np.asarray(f(pts))
    return vals.reshape((Q, P) + vals.shape[1:])


# No library route takes the Hessian: it stays for perfbench's patch table,
# until that table is replaced, and for the tests' FD reference.
def hessian(f, x, h):
    """Fourth-order full Hessian; (P, m, m, ...)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    P, m = x.shape
    offsets = [np.zeros(m)]
    index = {}
    for a in range(m):
        for s in (h, -h, h / 2, -h / 2):
            e = np.zeros(m)
            e[a] = s
            index[(a, s)] = len(offsets)
            offsets.append(e)
    for a in range(m):
        for b in range(a + 1, m):
            for sa in (1, -1):
                for sb in (1, -1):
                    for scale in (h, h / 2):
                        e = np.zeros(m)
                        e[a] = sa * scale
                        e[b] = sb * scale
                        index[(a, b, sa, sb, scale)] = len(offsets)
                        offsets.append(e)
    vals = _eval_at_offsets(f, x, offsets)
    c = vals[0]
    trailing = c.shape[1:]
    H = np.zeros((m, m, P) + trailing, dtype=vals.dtype)
    for a in range(m):
        vp, vm = vals[index[(a, h)]], vals[index[(a, -h)]]
        vp2, vm2 = vals[index[(a, h / 2)]], vals[index[(a, -h / 2)]]
        d_h = (vp - 2 * c + vm) / h**2
        d_h2 = (vp2 - 2 * c + vm2) / (h / 2) ** 2
        H[a, a] = (4 * d_h2 - d_h) / 3
    for a in range(m):
        for b in range(a + 1, m):
            def mixed(scale):
                pp = vals[index[(a, b, 1, 1, scale)]]
                pm = vals[index[(a, b, 1, -1, scale)]]
                mp = vals[index[(a, b, -1, 1, scale)]]
                mm = vals[index[(a, b, -1, -1, scale)]]
                return (pp - pm - mp + mm) / (4 * scale**2)

            val = (4 * mixed(h / 2) - mixed(h)) / 3
            H[a, b] = val
            H[b, a] = val
    # leading axis back to P
    return np.moveaxis(H, 2, 0)


def laplacian_2d_nodes(x, h):
    """The 9 stencil nodes of ``laplacian_2d`` around each point; (9, P, 2)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    offsets = [np.zeros(2)]
    for a in range(2):
        for s in (h, -h, h / 2, -h / 2):
            e = np.zeros(2)
            e[a] = s
            offsets.append(e)
    return x[None, :, :] + np.asarray(offsets)[:, None, :]


def laplacian_2d_combine(vals, h):
    """Combine values (9, P, ...) at ``laplacian_2d_nodes`` into (P, ...)."""
    c = vals[0]

    def lap(vpx, vmx, vpy, vmy, step):
        return (vpx + vmx + vpy + vmy - 4 * c) / step**2

    l_h = lap(vals[1], vals[2], vals[5], vals[6], h)
    l_h2 = lap(vals[3], vals[4], vals[7], vals[8], h / 2)
    kinked = np.abs(l_h - l_h2) > 1e-2 * (1 + np.abs(l_h2))
    return np.where(kinked, l_h2, (4 * l_h2 - l_h) / 3)


def laplacian_2d(f, x, h):
    """Fourth-order Laplacian of a function on R^2; (P, ...)."""
    nodes = laplacian_2d_nodes(x, h)
    vals = np.asarray(f(nodes.reshape(-1, 2)))
    return laplacian_2d_combine(vals.reshape(nodes.shape[:2] + vals.shape[1:]), h)
