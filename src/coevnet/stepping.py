"""The time grids, the fixed-grid stepper and the one-step updates it runs.

``grid_steps`` states the one grid rule, T a whole number of dt steps, which
every fixed-step run (the compiled closure loop too) and every grid check
obeys; ``sample_times`` gives the jump models' sample times.  Every Python
integrator advances on the grid t0 + k dt through ``run_grid``, which owns
the stepping, the finiteness check (or leaves it to a step that makes it)
and the sampling rule.  The integrator passes only its one-step function,
built on ``rk4_step`` or the micro workspace's rk4 step, an Euler update or
``rkf45_advance`` (adaptive substeps between grid points, each
``rkf45_step`` or the workspace's substep).  Every stage and update of an
rk4 or Fehlberg step is the one explicit Runge-Kutta sum ``rk_sum``, or its
compiled twin ``coevnet_rk_sum``, which sums in the same order.
``rk4_step`` and ``rkf45_step`` are the reference of the compiled step
entry ``rk_step`` (see ``_kernels.c``), which takes each step of the micro
workspace; without the compiled module the workspace runs them instead.  A
failed step raises IntegrationError; no integrator returns a truncated
trajectory.  The compiled closure loop of ``_kernels.c`` keeps the same
grid, sampling rule and failure on a non-finite state.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .errors import IntegrationError, ModelError

Rhs = Callable[[np.ndarray], np.ndarray]


def _memory_bytes() -> float:
    """The machine's physical memory in bytes, or the largest index when unknown."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return float(np.iinfo(np.intp).max)


_MEMORY_BYTES = _memory_bytes()


def _check_horizon(T: float) -> None:
    if not 0.0 <= T < np.inf:   # False for NaN
        raise ModelError(f"T must be nonnegative and finite, got {T}")


def grid_steps(dt: float, T: float, stride: int, name: str = "dt") -> int:
    """n = T / dt, the steps of a grid run; ModelError unless dt is finite
    and > 0, T is finite and >= 0, the sample stride is >= 1 and |n dt - T|
    <= 1e-9 max(1, T), that is T is a multiple of dt (``name`` labels dt in
    the errors)."""
    if not 0.0 < dt < np.inf:   # False for NaN
        raise ModelError(f"{name} must be positive and finite, got {dt}")
    _check_horizon(T)
    if stride < 1:
        raise ModelError("sample_stride must be >= 1")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(1.0, T):
        raise ModelError(f"T must be a multiple of {name}")
    return n


def sample_times(T: float, sample_dt: float | None) -> np.ndarray:
    """The sample times of a jump-model run: 0 and T without a sample_dt;
    else the multiples of sample_dt up to T, then T unless T is on that grid
    by grid_steps' rule, with a last multiple past T moved to T.  ModelError
    unless T is finite and >= 0 and a sample_dt is finite and > 0, and when
    the grid's length, computed first, is more float64s than the machine's
    memory holds or they cannot be allocated."""
    _check_horizon(T)
    if sample_dt is None:
        return np.array([0.0, T]) if T > 0 else np.array([0.0])
    if not 0.0 < sample_dt < np.inf:   # False for NaN
        raise ModelError(f"sample_dt must be positive and finite, got {sample_dt}")
    tol = 1e-9 * max(1.0, T)
    n = np.floor((T + tol) / sample_dt) + 1.0   # a float: it may be past any index
    try:
        if not n * 8.0 <= _MEMORY_BYTES:   # not even tried
            raise MemoryError
        grid = np.arange(int(n)) * sample_dt
    except MemoryError:
        raise ModelError(f"sample_dt={sample_dt} makes {n:.6g} sample times up to T={T}, "
                         "more than memory holds") from None
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


# The weights of an RK4 stage (y + h k) and of the RK4 update (with h = dt / 6;
# 1.0 k is k), and the Fehlberg 4(5) tableau.
_ONE = (1.0,)
_RK4_B = (1.0, 2.0, 2.0, 1.0)
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


def rk_sum(y: np.ndarray, h: float, a, k, out: np.ndarray | None = None) -> np.ndarray:
    """y + h (a[0] k[0] + ... + a[n-1] k[n-1]), into out if given: the one
    explicit Runge-Kutta sum, which every RK4 and Fehlberg stage and update
    forms.  The terms are summed left to right from the first (not from 0),
    as ``coevnet_rk_sum`` of ``_kernels.c`` sums them."""
    s = a[0] * k[0]
    for a_j, k_j in zip(a[1:], k[1:]):
        s = s + a_j * k_j
    return np.add(y, h * s, out=out)


def rk4_step(f: Rhs, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(rk_sum(y, 0.5 * h, _ONE, (k1,)))
    k3 = f(rk_sum(y, 0.5 * h, _ONE, (k2,)))
    k4 = f(rk_sum(y, h, _ONE, (k3,)))
    return rk_sum(y, h / 6.0, _RK4_B, (k1, k2, k3, k4))


def rkf45_step(f: Rhs, y: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """One Fehlberg step; returns the 5th-order update and an error estimate."""
    ks = [f(y)]
    for row in _RKF_A[1:]:
        ks.append(f(rk_sum(y, h, row, ks)))
    y5 = rk_sum(y, h, _RKF_B5, ks)
    return y5, fehlberg_error(y5, rk_sum(y, h, _RKF_B4, ks))


def fehlberg_error(y5: np.ndarray, y4: np.ndarray) -> float:
    """max |y5 - y4|: NaN when a difference is NaN, as np.max, and 0.0 for an empty y5."""
    return float(np.max(np.abs(y5 - y4))) if np.size(y5) else 0.0


def rkf45_advance(
    f: Rhs,
    y: np.ndarray,
    span: float,
    atol: float = 1e-8,
    rtol: float = 1e-6,
    t0: float = 0.0,
    step: Callable[[Rhs, np.ndarray, float], tuple[np.ndarray, float]] = rkf45_step,
) -> np.ndarray:
    """Advance y over one output interval with adaptive Fehlberg substeps.

    A substep that misses the tolerance at h <= 1e-14 * span raises
    IntegrationError naming t0, the time the interval starts from, instead
    of being accepted.  A non-finite update of a finite y always misses it.
    step(f, y, h) takes one substep, as ``rkf45_step`` (the micro flow's
    compiled substep forms the same sums in the same order).
    """
    if span <= 0.0:
        return y
    t = 0.0
    h = span
    scale = None   # y's tolerance, taken once per accepted y
    while t < span:
        h = min(h, span - t)
        y_new, err = step(f, y, h)
        if scale is None:
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
            scale = None
        else:
            h *= max(0.1, 0.9 * (scale / err) ** 0.25)
    return y
