"""The sampling quasi-convexity certifier, kept as a differential oracle.

hhverify decided quasi-convexity with it before the exact valley test on
turning points.  g is sampled on n = n_grid coarse points x_i (the
candidate endpoints) and on the fine grid linspace(a, b, m*m + 1),
m = n - 1, which holds, in exact arithmetic, every mixed point
lam*x_i + (1-lam)*x_j with lam = k/m.  The fine point t_s is reached by
any pair with i <= floor(s/m) <= ceil(s/m) <= j, so its smallest bound is
max(prefix_min(g(x))[floor(s/m)], suffix_min(g(x))[ceil(s/m)]), and one
valley test over the fine grid covers every grid triple with O(n^2)
evaluations of g.

Its "certified" is evidence at grid resolution: a peak between two fine
points, or within half a fine step of an end, is invisible to it.
"refuted" carries a re-verified witness triple, and "non_finite" names
the smallest sampled abscissa where g is NaN or infinite.  The threshold
is tol * max(1, max|g|) over the finite coarse values.
"""

import math

import numpy as np

from hhverify.errors import DomainError
from hhverify.quasiconvex import QuasiConvexityCertificate


def _value(g, x):
    try:
        return float(g(x))
    except OverflowError:
        return math.inf


def eval_on_array(g, x):
    """g at each point of the array x, one scalar call per point (an overflow
    is infinite), shaped as x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return np.array([_value(g, t) for t in x.ravel().tolist()]).reshape(x.shape)


def sample_certificate(g, interval, n_grid=101, tol=1e-12):
    """The sampled certificate of g on the interval."""
    if n_grid < 3:
        raise DomainError(f"grid size must be at least 3, got {n_grid}")
    if tol < 0.0:
        raise DomainError(f"tolerance must be non-negative, got {tol}")
    m = n_grid - 1
    xs = np.linspace(interval.a, interval.b, n_grid)
    ts = np.linspace(interval.a, interval.b, m * m + 1)
    gx, gt = eval_on_array(g, xs), eval_on_array(g, ts)
    finite = np.isfinite(gx)
    tol = tol * max(1.0, float(np.abs(gx[finite]).max(initial=0.0)))
    bad = np.concatenate((xs[~finite], ts[~np.isfinite(gt)]))
    if bad.size:
        return QuasiConvexityCertificate("non_finite", n_grid, tol, math.nan,
                                         bad_abscissa=float(bad.min()))
    lo = np.minimum.accumulate(gx)  # lo[k] = min(g(x_0), ..., g(x_k))
    hi = np.minimum.accumulate(gx[::-1])[::-1]  # min(g(x_k), ..., g(x_m))
    s = np.arange(m * m + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        viol = gt - np.maximum(lo[s // m], hi[-(-s // m)])
    return _verdict(g, xs, gx, ts, viol, n_grid, tol)


def _verdict(g, xs, gx, ts, viol, n_grid, tol):
    """Certified unless the largest violation, at fine point s, exceeds tol.

    The witness is the pair with the smallest bound at t_s (the first
    argmin on each side), re-evaluated at its own mixed point.  If it does
    not re-verify above tol, its own violation replaces the sampled one
    and the search goes on."""
    m = n_grid - 1
    s = int(np.argmax(viol))
    while viol[s] > tol:
        below, above = s // m, -(-s // m)  # the coarse points next to t_s
        i = int(np.argmin(gx[: below + 1]))
        j = above + int(np.argmin(gx[above:]))
        x, y, t = float(xs[i]), float(xs[j]), float(ts[s])
        lam = 1.0 if y == x else min(1.0, max(0.0, (y - t) / (y - x)))
        mixed = _value(g, lam * x + (1.0 - lam) * y)
        if not math.isfinite(mixed):
            return QuasiConvexityCertificate("non_finite", n_grid, tol, math.nan,
                                             bad_abscissa=lam * x + (1.0 - lam) * y)
        value_x, value_y = float(gx[i]), float(gx[j])
        violation = mixed - max(value_x, value_y)
        if violation > tol:
            return QuasiConvexityCertificate("refuted", n_grid, tol, float(viol[s]), {
                "x": x, "y": y, "lam": lam, "mixed_value": mixed, "value_x": value_x,
                "value_y": value_y, "violation": violation})
        viol[s] = violation
        s = int(np.argmax(viol))
    return QuasiConvexityCertificate("certified", n_grid, tol, max(float(viol[s]), 0.0))
