"""Fixed-step and embedded Runge-Kutta steppers on numpy state vectors.

All solvers in the package step on a fixed output grid (multiples of dt) so
that trajectories are reproducible and directly comparable across runs.  The
adaptive RKF45 path subdivides between grid points but still reports on the
grid.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import IntegrationError

Rhs = Callable[[np.ndarray], np.ndarray]


def rk4_step(f: Rhs, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Fehlberg 4(5) tableau.
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def rkf45_step(f: Rhs, y: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """One Fehlberg step; returns the 5th-order update and an error estimate."""
    ks = [f(y)]
    for row in _RKF_A[1:]:
        yi = y + h * sum(a * k for a, k in zip(row, ks))
        ks.append(f(yi))
    y5 = y + h * sum(b * k for b, k in zip(_RKF_B5, ks))
    y4 = y + h * sum(b * k for b, k in zip(_RKF_B4, ks))
    err = float(np.max(np.abs(y5 - y4))) if np.size(y5) else 0.0
    return y5, err


def rkf45_advance(
    f: Rhs,
    y: np.ndarray,
    span: float,
    atol: float = 1e-8,
    rtol: float = 1e-6,
    h0: float | None = None,
) -> np.ndarray:
    """Advance y over one output interval with adaptive Fehlberg substeps.

    A step that misses the tolerance at h <= 1e-14 * span raises
    IntegrationError instead of being accepted.
    """
    if span <= 0.0:
        return y
    t = 0.0
    h = span if h0 is None else min(h0, span)
    while t < span:
        h = min(h, span - t)
        y_new, err = rkf45_step(f, y, h)
        scale = atol + rtol * float(np.max(np.abs(y))) if np.size(y) else atol
        accept = err <= scale     # False for a NaN error too
        if not accept and h <= 1e-14 * span:
            raise IntegrationError(
                f"adaptive step missed its tolerance (error {err:.3e} > {scale:.3e}) "
                f"at the minimum step {h:.3e}")
        if accept:
            t += h
            y = y_new
            if err > 0.0:
                h *= min(4.0, 0.9 * (scale / err) ** 0.2)
            else:
                h *= 4.0
        else:
            h *= max(0.1, 0.9 * (scale / err) ** 0.25)
        if not np.all(np.isfinite(y)):
            raise IntegrationError("adaptive step produced non-finite state")
    return y
