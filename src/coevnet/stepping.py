"""The fixed-grid stepper and the one-step updates it runs.

Every Python integrator in the package advances on the grid t0 + k dt
through ``run_grid``, which owns the grid, the finiteness check and the
sampling rule.  The integrator passes only its one-step function, built on
``rk4_step``, an Euler update or ``rkf45_advance`` (adaptive substeps between
grid points).  A failed step raises IntegrationError; no integrator returns
a truncated trajectory.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import IntegrationError, ModelError

Rhs = Callable[[np.ndarray], np.ndarray]


def run_grid(
    step: Callable[[np.ndarray, float], np.ndarray],
    y0: np.ndarray,
    t0: float,
    dt: float,
    T: float,
    stride: int,
    sample: Callable[[np.ndarray, float], None],
) -> None:
    """Advance y0 over round(T / dt) steps of the grid t0 + k dt.

    ``step(y, t)`` returns the state at t + dt from the state y at t; a
    result with a NaN or Inf entry raises IntegrationError naming t.
    ``sample(y, t)`` sees the state at k = 0 and at every k with
    k % stride == 0 or k == n_steps; a sample that keeps y copies it.
    """
    if dt <= 0:
        raise ModelError("dt must be positive")
    if T < 0:
        raise ModelError("T must be nonnegative")
    if stride < 1:
        raise ModelError("sample_stride must be >= 1")
    n_steps = int(round(T / dt)) if T > 0 else 0
    y = y0
    sample(y, t0)
    for k in range(1, n_steps + 1):
        t = t0 + (k - 1) * dt
        y = step(y, t)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state in the step from t={t:.6g}")
        if k % stride == 0 or k == n_steps:
            sample(y, t0 + k * dt)


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
