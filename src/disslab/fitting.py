"""Small least-squares helpers shared by the fitting front ends."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r_squared: float
    residual: float  # RMS residual


def line_fit(x, y) -> LineFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LineFit(float(slope), float(intercept), r2, float(np.sqrt(ss_res / x.size)))
