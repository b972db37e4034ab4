"""Sampling-based quasi-convexity certification.

g is quasi-convex on [a, b] when g(lam*x + (1-lam)*y) <= max(g(x), g(y))
for all x, y in [a, b] and lam in [0, 1].  With endpoints x_i on
linspace(a, b, n) and weights lam_k = k/m, m = n - 1, every mixed point
is, in exact arithmetic, a point t_s of the fine grid linspace(a, b,
m*m + 1), reached by any pair with i <= floor(s/m) <= ceil(s/m) <= j.
The smallest bound at t_s is therefore max(prefix_min(g(x))[floor(s/m)],
suffix_min(g(x))[ceil(s/m)]), and one valley test over the fine grid
covers every grid triple with O(n^2) evaluations of g instead of O(n^3).

"certified" is evidence at grid resolution, not a proof.  "refuted"
carries a re-verified witness triple.  "non_finite" means g returned NaN
or an infinity, at smallest sampled abscissa ``bad_abscissa``, so there
is no verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .numerics import Interval, eval_on_array

DEFAULT_QC_GRID = 101
DEFAULT_QC_TOL = 1e-12
# Largest grid a run accepts: its fine grid holds 10**6 doubles (8 MB) per array.
MAX_QC_GRID = 1001
# Fine points sampled at once: one default grid's, (DEFAULT_QC_GRID - 1)**2 + 1.
STACK_POINTS = (DEFAULT_QC_GRID - 1) ** 2 + 1


@dataclass(frozen=True)
class CounterExample:
    """A triple violating the defining inequality, with the values seen."""

    x: float
    y: float
    lam: float
    mixed_value: float
    value_x: float
    value_y: float
    violation: float


@dataclass(frozen=True)
class QuasiConvexityCertificate:
    verdict: str  # "certified" | "refuted" | "non_finite"
    grid_size: int
    tol: float
    max_violation: float
    counterexample: Optional[CounterExample] = None
    bad_abscissa: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _certify_stack(g: Callable, intervals: Sequence[Interval], n_grid: int,
                   tol: float) -> list[QuasiConvexityCertificate]:
    """The certificate of every interval of one stack, from one sampling of g on
    the stacked coarse and fine grids.  linspace builds the grids row by row, so
    row r holds exactly the values interval r gets on its own."""
    if n_grid < 3:
        raise DomainError(f"grid size must be at least 3, got {n_grid}")
    if tol < 0.0:
        raise DomainError(f"tolerance must be non-negative, got {tol}")
    m = n_grid - 1
    if len(intervals) == 1:  # scalar ends spare linspace a moveaxis
        a, b, axis = intervals[0].a, intervals[0].b, 0
    else:
        a, b, axis = np.array([iv.a for iv in intervals]), np.array([iv.b for iv in intervals]), 1
    xs = np.linspace(a, b, n_grid, axis=axis).reshape(-1, n_grid)
    gx = eval_on_array(g, xs)
    ts = np.linspace(a, b, m * m + 1, axis=axis).reshape(-1, m * m + 1)
    gt = eval_on_array(g, ts)
    tols = tol * np.maximum(1.0, np.abs(gx).max(axis=-1))  # non-finite rows: see below
    lo = np.minimum.accumulate(gx, axis=-1)  # lo[k] = min(g(x_0), ..., g(x_k))
    hi = np.minimum.accumulate(gx[:, ::-1], axis=-1)[:, ::-1]  # min(g(x_k), ..., g(x_m))
    # The smallest bound at t_s is max(lo[floor(s/m)], hi[ceil(s/m)]): between
    # coarse points k and k+1 that is max(lo[k], hi[k+1]), on point k max(lo[k], hi[k]).
    # Splitting each row's first m*m points into m blocks of m is a view.
    viol = np.empty_like(gt)
    blocks = (len(gt), m, m)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows
        np.subtract(gt[:, :-1].reshape(blocks), np.maximum(lo[:, :-1], hi[:, 1:])[:, :, None],
                    out=viol[:, :-1].reshape(blocks))
        viol[:, ::m] = gt[:, ::m] - np.maximum(lo, hi)
        # A row holding a non-finite value has a non-finite sum; so may one that overflows.
        suspect = ~np.isfinite(gx.sum(axis=-1) + gt.sum(axis=-1))
    top = np.argmax(viol, axis=-1)
    certs = []
    for r, (s, t, odd) in enumerate(zip(top.tolist(), tols.tolist(), suspect.tolist())):
        if odd:
            finite_x = np.isfinite(gx[r])
            bad = np.concatenate((xs[r][~finite_x], ts[r][~np.isfinite(gt[r])]))
            if bad.size:  # the threshold over the finite coarse values only
                t = tol * max(1.0, float(np.abs(gx[r][finite_x]).max(initial=0.0)))
                certs.append(QuasiConvexityCertificate("non_finite", n_grid, t, math.nan,
                                                       bad_abscissa=float(bad.min())))
                continue
        certs.append(_verdict(g, xs[r], gx[r], ts[r], viol[r], s, n_grid, t))
    return certs


def _verdict(g: Callable, xs, gx, ts, viol, s: int, n_grid: int,
             tol: float) -> QuasiConvexityCertificate:
    """Certified unless the largest violation, at fine point s, exceeds tol.

    The witness is the pair with the smallest bound at t_s (the first
    argmin on each side), re-evaluated at its own mixed point.  If it does
    not re-verify above tol (rounding at the threshold's edge), its own
    violation replaces the sampled one and the search goes on, so a
    refutation always re-verifies and a certificate never reports more
    than the threshold."""
    m = n_grid - 1
    while viol[s] > tol:
        below, above = s // m, -(-s // m)  # the coarse points next to t_s
        i = int(np.argmin(gx[: below + 1]))
        j = above + int(np.argmin(gx[above:]))
        x, y, t = float(xs[i]), float(xs[j]), float(ts[s])
        lam = 1.0 if y == x else min(1.0, max(0.0, (y - t) / (y - x)))
        mixed = float(np.asarray(g(lam * x + (1.0 - lam) * y), dtype=float))
        if not math.isfinite(mixed):
            return QuasiConvexityCertificate("non_finite", n_grid, tol, math.nan,
                                             bad_abscissa=lam * x + (1.0 - lam) * y)
        value_x, value_y = float(gx[i]), float(gx[j])
        violation = mixed - max(value_x, value_y)
        if violation > tol:
            return QuasiConvexityCertificate("refuted", n_grid, tol, float(viol[s]),
                                             CounterExample(x, y, lam, mixed, value_x,
                                                            value_y, violation))
        viol[s] = violation
        s = int(np.argmax(viol))
    return QuasiConvexityCertificate("certified", n_grid, tol, max(float(viol[s]), 0.0))


def check_quasi_convex_rows(g: Callable, intervals: Sequence[Interval],
                            n_grid: int = DEFAULT_QC_GRID,
                            tol: float = DEFAULT_QC_TOL) -> list[QuasiConvexityCertificate]:
    """Valley check of g on each interval's fine grid against its coarse endpoints.

    The grids of several intervals are sampled as one stack of at most
    STACK_POINTS fine points, so a grid of 101 points or more is a stack
    of one.  So is an interval whose fine step underflows: its row would
    switch linspace's formula for its whole stack.  Each certificate is
    what the interval gets on its own.  ``tol`` is relative: the threshold
    is tol * max(1, max|g|) on the coarse grid, so that rounding noise
    cannot refute large functions.
    """
    fine = max(n_grid - 1, 1) ** 2  # n_grid < 3 is rejected by the first stack
    rows = max(1, STACK_POINTS // (fine + 1))
    alone = [[i] for i, iv in enumerate(intervals) if not iv.width / fine > 0.0]
    rest = [i for i, iv in enumerate(intervals) if iv.width / fine > 0.0]
    out: list = [None] * len(intervals)
    for stack in alone + [rest[k:k + rows] for k in range(0, len(rest), rows)]:
        for i, cert in zip(stack, _certify_stack(g, [intervals[i] for i in stack], n_grid, tol)):
            out[i] = cert
    return out


def check_quasi_convex(g: Callable, interval: Interval, n_grid: int = DEFAULT_QC_GRID,
                       tol: float = DEFAULT_QC_TOL) -> QuasiConvexityCertificate:
    """``check_quasi_convex_rows`` on one interval: a stack of one."""
    return _certify_stack(g, [interval], n_grid, tol)[0]
