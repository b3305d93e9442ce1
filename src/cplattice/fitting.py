"""Power-law exponent extraction from sweep data.

fit_power_law does ordinary least squares on (ln z, ln |value|); slope is
the exponent. envelope_fit first reduces oscillatory data to its local
|value| maxima and fits through the peaks, which is what the retarded
resonant shifts (pendulating as cos 2z / sin 2z) require.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InsufficientPoints(ValueError):
    """Fewer than 5 points fall inside the fit window."""


class ZeroValue(ValueError):
    """A point inside the window whose log z or log |value| is not finite: a
    zero value, or a z or value that is not positive and finite."""


class TooFewPeaks(ValueError):
    """Fewer than 5 local maxima inside the window."""


@dataclass(frozen=True)
class FitReport:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    points_used: int


def _window_select(points, window):
    """The window's points in order of z, at least 5 (else InsufficientPoints),
    each with z > 0 and z and value finite (else ZeroValue); and the window."""
    pts = np.asarray(points if len(points) else np.empty((0, 2)), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a sequence of (z, value) pairs")
    zmin, zmax = float(window[0]), float(window[1])
    sel = pts[(pts[:, 0] >= zmin) & (pts[:, 0] <= zmax)]
    if sel.shape[0] < 5:
        raise InsufficientPoints(f"{sel.shape[0]} points in window, need >= 5")
    sel = sel[np.argsort(sel[:, 0])]
    bad = ~((sel[:, 0] > 0.0) & np.isfinite(sel).all(axis=1))
    if bad.any():
        raise ZeroValue(f"log z or log |value| not finite at z={float(sel[bad][0, 0])!r} "
                        "inside fit window")
    return sel, (zmin, zmax)


def _least_squares_loglog(z, v, window) -> FitReport:
    x = np.log(z)
    y = np.log(np.abs(v))
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    sxx = float(dx @ dx)
    slope = float(dx @ (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    sst = float(((y - ym) ** 2).sum())
    r2 = 1.0 if sst == 0.0 else 1.0 - float((resid ** 2).sum()) / sst
    return FitReport(slope=slope, intercept=float(intercept), r_squared=float(r2),
                     window=window, points_used=int(z.size))


def fit_power_law(points, window) -> FitReport:
    """Least-squares line on (ln z, ln |value|) inside the window."""
    sel, win = _window_select(points, window)
    if np.any(sel[:, 1] == 0.0):
        raise ZeroValue("zero value inside fit window")
    return _least_squares_loglog(sel[:, 0], sel[:, 1], win)


def envelope_fit(points, window) -> FitReport:
    """Power-law fit through the local maxima of |value| inside the window.

    Peaks are detected by three-point comparison on the sampled grid; the
    caller is responsible for sampling densely enough (>= 16 points per
    oscillation period).
    """
    sel, win = _window_select(points, window)
    v = np.abs(sel[:, 1])
    # a peak exceeds a neighbour's |value| >= 0, so it is never zero
    inner = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    idx = np.nonzero(inner)[0] + 1
    if idx.size < 5:
        raise TooFewPeaks(f"{idx.size} peaks in window, need >= 5")
    return _least_squares_loglog(sel[idx, 0], sel[idx, 1], win)
