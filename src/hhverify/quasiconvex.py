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


def _witness(g: Callable, xs: np.ndarray, gx: np.ndarray, t: float,
             lo: int, hi: int) -> CounterExample:
    """The pair with the smallest bound at t (first argmin on each side),
    re-evaluated at its own mixed point."""
    i = int(np.argmin(gx[: lo + 1]))
    j = hi + int(np.argmin(gx[hi:]))
    x, y = float(xs[i]), float(xs[j])
    lam = 1.0 if y == x else min(1.0, max(0.0, (y - t) / (y - x)))
    mixed = float(np.asarray(g(lam * x + (1.0 - lam) * y), dtype=float))
    return CounterExample(x=x, y=y, lam=lam, mixed_value=mixed,
                          value_x=float(gx[i]), value_y=float(gx[j]),
                          violation=mixed - max(float(gx[i]), float(gx[j])))


def _valleys(g: Callable, a, b, n_grid: int, tol: float):
    """Coarse and fine abscissae and values, thresholds and violations on [a, b] or,
    for arrays a and b, one row per [a_r, b_r] holding exactly a lone row's values."""
    if n_grid < 3:
        raise DomainError(f"grid size must be at least 3, got {n_grid}")
    if tol < 0.0:
        raise DomainError(f"tolerance must be non-negative, got {tol}")
    axis = np.ndim(a)  # the last axis; 0 spares linspace a moveaxis
    xs = np.linspace(a, b, n_grid, axis=axis)
    gx = eval_on_array(g, xs)
    tols = tol * np.maximum(1.0, np.abs(np.where(np.isfinite(gx), gx, 0.0)).max(axis=-1))
    m = n_grid - 1
    ts = np.linspace(a, b, m * m + 1, axis=axis)
    gt = eval_on_array(g, ts)
    # Entry s of repeat(v, m) is v[floor(s/m)]; entry s + m - 1 is v[ceil(s/m)].
    left = np.repeat(np.minimum.accumulate(gx, axis=-1), m, axis=-1)[..., : m * m + 1]
    right = np.repeat(np.minimum.accumulate(gx[..., ::-1], axis=-1)[..., ::-1], m,
                      axis=-1)[..., m - 1:]
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row
        return xs, gx, ts, gt, tols.tolist(), gt - np.maximum(left, right)


def certify_stacked(g: Callable, intervals: Sequence[Interval], n_grid: int = DEFAULT_QC_GRID,
                    tol: float = DEFAULT_QC_TOL) -> list[Optional[QuasiConvexityCertificate]]:
    """Per interval, its certificate if the stacked valley check certifies it, else
    None, left to ``check_quasi_convex`` (witness, bad abscissa, grid below 3).  A
    chunk holds at most one default grid's fine points, so 101 points or more are
    not stacked; nor is an interval whose fine step underflows (linspace's formula)."""
    rows = ((DEFAULT_QC_GRID - 1) ** 2 + 1) // ((n_grid - 1) ** 2 + 1)
    out: list[Optional[QuasiConvexityCertificate]] = [None] * len(intervals)
    if rows < 2 or n_grid < 3:
        return out
    stackable = [i for i, iv in enumerate(intervals) if iv.width / (n_grid - 1) ** 2 > 0.0]
    for start in range(0, len(stackable), rows):
        chunk = stackable[start:start + rows]
        _, gx, _, gt, tols, viol = _valleys(g, np.array([intervals[i].a for i in chunk]),
                                            np.array([intervals[i].b for i in chunk]), n_grid, tol)
        finite = np.isfinite(gx).all(axis=-1) & np.isfinite(gt).all(axis=-1)
        top = viol[np.arange(len(viol)), np.argmax(viol, axis=-1)]
        for i, ok, t, v in zip(chunk, finite.tolist(), tols, top.tolist()):
            if ok and not v > t:
                out[i] = QuasiConvexityCertificate("certified", n_grid, t, max(v, 0.0))
    return out


def check_quasi_convex(g: Callable, interval: Interval, n_grid: int = DEFAULT_QC_GRID,
                       tol: float = DEFAULT_QC_TOL) -> QuasiConvexityCertificate:
    """Valley check of g on the fine grid against the coarse endpoints.

    The witness is the pair at the first fine point with the largest
    violation.  If it does not re-verify above the threshold (rounding at
    the threshold's edge), its own violation replaces the sampled one and
    the search goes on, so a refutation always re-verifies and a
    certificate never reports more than the threshold.

    ``tol`` is relative to the magnitude of g on the coarse grid: the
    absolute threshold is tol * max(1, max|g|), recorded in the
    certificate, so that rounding noise cannot refute large functions.
    """
    xs, gx, ts, gt, tol, viol = _valleys(g, interval.a, interval.b, n_grid, tol)
    bad = np.concatenate((xs[~np.isfinite(gx)], ts[~np.isfinite(gt)]))
    if bad.size:
        return QuasiConvexityCertificate("non_finite", n_grid, tol, math.nan,
                                         bad_abscissa=float(bad.min()))
    m = n_grid - 1
    while True:
        s = int(np.argmax(viol))
        if not viol[s] > tol:
            return QuasiConvexityCertificate("certified", n_grid, tol,
                                             max(float(viol[s]), 0.0))
        witness = _witness(g, xs, gx, float(ts[s]), s // m, -(-s // m))
        if not math.isfinite(witness.mixed_value):
            mixed = witness.lam * witness.x + (1.0 - witness.lam) * witness.y
            return QuasiConvexityCertificate("non_finite", n_grid, tol, math.nan,
                                             bad_abscissa=mixed)
        if witness.violation > tol:
            return QuasiConvexityCertificate("refuted", n_grid, tol,
                                             float(viol[s]), witness)
        viol[s] = witness.violation
