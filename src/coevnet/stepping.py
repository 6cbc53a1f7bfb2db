"""The time grids, the fixed-grid stepper and the one-step updates it runs.

``grid_steps`` states the one grid rule, T a whole number of dt steps, which
every fixed-step run (the compiled closure loop too) and every grid check
obeys; ``sample_times`` gives the jump models' sample times.  Every Python
integrator advances on the grid t0 + k dt through ``run_grid``, which owns
the stepping, the finiteness check (or leaves it to a step that makes it)
and the sampling rule.  The integrator passes only its one-step function,
built on ``rk4_step`` (or the micro flow's compiled RK4, which sums the
same stages in the same order), an Euler update or ``rkf45_advance``
(adaptive substeps between grid points).  A failed step raises
IntegrationError; no integrator returns a truncated trajectory.  The compiled closure loop of
``_kernels.c`` keeps the same grid, sampling rule and failure on a
non-finite state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import IntegrationError, ModelError

Rhs = Callable[[np.ndarray], np.ndarray]


def grid_steps(dt: float, T: float, stride: int, name: str = "dt") -> int:
    """n = T / dt, the steps of a grid run; ModelError unless dt > 0, T >= 0,
    the sample stride is >= 1 and |n dt - T| <= 1e-9 max(1, T), that is T is
    a multiple of dt (``name`` labels dt in that error)."""
    if dt <= 0:
        raise ModelError("dt must be positive")
    if T < 0:
        raise ModelError("T must be nonnegative")
    if stride < 1:
        raise ModelError("sample_stride must be >= 1")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(1.0, T):
        raise ModelError(f"T must be a multiple of {name}")
    return n


def sample_times(T: float, sample_dt: float | None) -> np.ndarray:
    """The sample times of a jump-model run: 0 and T without a sample_dt;
    else the multiples of sample_dt up to T, then T unless T is on that grid
    by grid_steps' rule, with a last multiple past T moved to T."""
    if sample_dt is None:
        return np.array([0.0, T]) if T > 0 else np.array([0.0])
    tol = 1e-9 * max(1.0, T)
    grid = np.arange(int(np.floor((T + tol) / sample_dt)) + 1) * sample_dt
    if grid[-1] < T - tol:
        return np.append(grid, T)
    if grid[-1] > T + 1e-12:   # the jump models record no time past T
        grid[-1] = T
    return grid


def run_grid(
    step: Callable[[np.ndarray, float], np.ndarray],
    y0: np.ndarray,
    t0: float,
    dt: float,
    T: float,
    stride: int,
    sample: Callable[[np.ndarray, float], None],
    step_checks_finite: bool = False,
) -> np.ndarray:
    """Advance y0 over the grid_steps(dt, T, stride) steps of the grid t0 + k dt.

    ``step(y, t)`` returns the state at t + dt from the state y at t; a
    result with a NaN or Inf entry raises IntegrationError naming t, unless
    ``step_checks_finite`` says that step raises on one itself (the micro
    flow's step does, naming the failed legs), so that no step's state is
    scanned twice.  ``sample(y, t)`` sees the state at k = 0 and at every k
    with k % stride == 0 or k == n_steps; a sample that keeps y copies it.
    Returns the state at the last grid point.
    """
    n_steps = grid_steps(dt, T, stride)
    y = y0
    sample(y, t0)
    for k in range(1, n_steps + 1):
        t = t0 + (k - 1) * dt
        y = step(y, t)
        if not (step_checks_finite or np.isfinite(y).all()):
            raise IntegrationError(f"non-finite state in the step from t={t:.6g}")
        if k % stride == 0 or k == n_steps:
            sample(y, t0 + k * dt)
    return y


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
    t0: float = 0.0,
) -> np.ndarray:
    """Advance y over one output interval with adaptive Fehlberg substeps.

    A substep that misses the tolerance at h <= 1e-14 * span raises
    IntegrationError naming t0, the time the interval starts from, instead
    of being accepted.  A non-finite update of a finite y always misses it.
    """
    if span <= 0.0:
        return y
    t = 0.0
    h = span
    while t < span:
        h = min(h, span - t)
        y_new, err = rkf45_step(f, y, h)
        scale = atol + rtol * float(np.max(np.abs(y))) if np.size(y) else atol
        accept = err <= scale     # False for a NaN error too
        if not accept and h <= 1e-14 * span:
            raise IntegrationError(
                f"adaptive step missed its tolerance in the step from t={t0:.6g} "
                f"(error {err:.3e} > {scale:.3e}) at the minimum step {h:.3e}")
        if accept:
            t += h
            y = y_new
            if err > 0.0:
                h *= min(4.0, 0.9 * (scale / err) ** 0.2)
            else:
                h *= 4.0
        else:
            h *= max(0.1, 0.9 * (scale / err) ** 0.25)
    return y
