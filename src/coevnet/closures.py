"""Macroscopic six-moment ODE systems of the binary minimal model under the
conditional-distribution and Kirkwood pair closures, plus their stationary
families, stability certificates and the small-cross-creation continuation.

State ordering everywhere: (f_pp, g_pp, f_mm, g_mm, f_pm, g_pm), where f is
the linked and g the unlinked mass per ordered state pair; the cross moments
are stored once.  rho_+ = f_pp + g_pp + f_pm + g_pm and rho_- analogously;
the weighted sum f_pp + g_pp + f_mm + g_mm + 2 (f_pm + g_pm) is conserved
identically by both systems.

``_rhs_arrays_py`` is the one python statement of the closure equations, and
the static ``rhs`` of ``_kernels.c`` is its compiled twin.  Everything else
here that needs the right-hand side calls it: ``closure_rhs``, the
h-equations of ``weight_averaged_rhs`` (its componentwise sums), the
continuation's reduced residual and ``linearized_jacobian``, which takes the
Jacobian from it by complex step.  What stays in closed form are theorems
about it: the threshold of ``polarization_stable``, the cross-link decay
rate ``_cross_decay_rate`` (the rate of ``decay_envelope_check`` and the
continuation's hypothesis), the continuation's cross balance Phi and the
mixed stationary h-profile.

The closure trajectory runs in ``coevnet_closure_loop`` of ``_kernels.c``,
built and loaded by ``_native``.  Its pure-python twin ``_closure_loop_py``,
with the compiled entry's signature, is ``stepping.rk4_step`` on
``stepping.run_grid``, and the C loop follows run_grid's rules: it records
step 0, every stride-th and the last step (or the step of a consensus
stop), and a non-finite step fails.  Every stage and update of both is the
one Runge-Kutta sum of its language, ``stepping.rk_sum`` and the C
``coevnet_rk_sum``, summed in the same order, so the two are bitwise equal.
``_integrate_loop`` checks and allocates for both, reads ``_native.LIB`` on
each call and runs the twin when it is None (no working compiler:
``_native`` has logged one warning), several hundred times slower.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import _native
from .errors import (
    ClosureSingular,
    ConsensusBoundary,
    ContinuationFailed,
    IntegrationError,
    InvariantViolation,
    ModelError,
)
from .models import MinimalParams
from .moments import MinimalMoments
from .stepping import grid_steps, rk4_step, run_grid

log = logging.getLogger(__name__)

DELTA_CONSENSUS = 1e-10
NEG_CLAMP_TOL = 1e-9
_STATIONARY_TOL = 1e-10     # the residual linearized_jacobian accepts as stationary
_NEWTON_MAX_ITER = 50       # Newton iterations of continue_small_epsilon per eps


class ClosureKind(str, Enum):
    CONDITIONAL = "conditional"
    KIRKWOOD = "kirkwood"

    @classmethod
    def _missing_(cls, value):
        raise ModelError(f"unknown closure kind {value!r}")


# -- the closure right-hand side ---------------------------------------------


def _rhs_arrays_py(y, r, kirk, densities=None):
    """The one python statement of the closure equations; the static ``rhs``
    of ``_kernels.c`` is its compiled twin, with the same expressions in the
    same order.  Under the conditional closure, with a = flip rates,
    b = link creation, c = link removal:

        f_pp' = a_mp f_pm^2 / rho_m - a_pm f_pp f_pm / rho_p + b_pp g_pp - c_pp f_pp
        g_pp' = a_mp g_pm f_pm / rho_m - a_pm g_pp f_pm / rho_p - b_pp g_pp + c_pp f_pp
        f_mm' = a_pm f_pm^2 / rho_p - a_mp f_mm f_pm / rho_m + b_mm g_mm - c_mm f_mm
        g_mm' = a_pm g_pm f_pm / rho_p - a_mp g_mm f_pm / rho_m - b_mm g_mm + c_mm f_mm
        f_pm' = -a_mp f_pm^2 / (2 rho_m) + a_pm f_pp f_pm / (2 rho_p)
                - a_pm f_pm^2 / (2 rho_p) + a_mp f_mm f_pm / (2 rho_m)
                + b_pm g_pm - c_pm f_pm
        g_pm' = -a_mp g_pm f_pm / (2 rho_m) + a_pm g_pp f_pm / (2 rho_p)
                - a_pm g_pm f_pm / (2 rho_p) + a_mp g_mm f_pm / (2 rho_m)
                - b_pm g_pm + c_pm f_pm

    Kirkwood (``kirk`` true) multiplies each flip term by h_pp/rho_p^2,
    h_mm/rho_m^2 or h_pm/(rho_p rho_m) according to the state pair of the
    passive partner and the flip-driving third particle.

    ``y`` holds the six moments and ``r`` the eight rates, as numpy float64,
    python float or python complex scalars; the result is an array of their
    type.  ``densities`` replaces the structural (rho_+, rho_-) by the given
    pair.  Nothing here guards the divisions: callers check the consensus
    threshold first.
    """
    f_pp, g_pp, f_mm, g_mm, f_pm, g_pm = y
    a_pm, a_mp, b_pp, b_mm, b_pm, c_pp, c_mm, c_pm = r
    if densities is None:
        rho_p = f_pp + g_pp + f_pm + g_pm
        rho_m = f_mm + g_mm + f_pm + g_pm
    else:
        rho_p, rho_m = densities
    if kirk:
        kpp = (f_pp + g_pp) / (rho_p * rho_p)
        kmm = (f_mm + g_mm) / (rho_m * rho_m)
        kpm = (f_pm + g_pm) / (rho_p * rho_m)
    else:
        kpp = kmm = kpm = 1.0

    u = f_pm / rho_m          # cross mass per unit minus density
    v = f_pm / rho_p
    return np.array([
        a_mp * f_pm * u * kpp - a_pm * f_pp * v * kpm + b_pp * g_pp - c_pp * f_pp,
        a_mp * g_pm * u * kpp - a_pm * g_pp * v * kpm - b_pp * g_pp + c_pp * f_pp,
        a_pm * f_pm * v * kmm - a_mp * f_mm * u * kpm + b_mm * g_mm - c_mm * f_mm,
        a_pm * g_pm * v * kmm - a_mp * g_mm * u * kpm - b_mm * g_mm + c_mm * f_mm,
        (-a_mp * f_pm * u * kpp + a_pm * f_pp * v * kpm
         - a_pm * f_pm * v * kmm + a_mp * f_mm * u * kpm) * 0.5
        + b_pm * g_pm - c_pm * f_pm,
        (-a_mp * g_pm * u * kpp + a_pm * g_pp * v * kpm
         - a_pm * g_pm * v * kmm + a_mp * g_mm * u * kpm) * 0.5
        - b_pm * g_pm + c_pm * f_pm,
    ])


# -- reference loop (pure python; the compiled loop must match it bitwise) ---


class _Stop(Exception):
    """Carries a loop status out of run_grid, after ``steps_done`` steps."""

    def __init__(self, status: int, steps_done: float):
        super().__init__(status)
        self.status, self.steps_done = status, int(steps_done)


def _closure_loop_py(y0, r, kirk, dt, n_steps, stride, delta, neg_tol, recs, rec_steps,
                     counts) -> int:
    """Fixed-step RK4 with consensus stop, negativity clamping and striding:
    the twin of the compiled ``closure_loop``, with its signature.

    run_grid walks the grid of step indices (t0 = 0, dt = 1), so its t is
    the number of steps done; it records step 0, every stride-th step and
    the last into the rows of recs and rec_steps.  counts receives (n_rec,
    clamp_count, steps_done).  Returns the status: 0 = completed,
    1 = consensus boundary (its step is recorded too), 2 = negativity beyond
    tolerance, 3 = non-finite step.
    """
    n_rec = clamped = 0

    def step(y, k):
        nonlocal clamped
        rho_p = y[0] + y[1] + y[4] + y[5]
        rho_m = y[2] + y[3] + y[4] + y[5]
        if rho_p * rho_m <= delta:     # the compiled loop's test, so both stop alike
            if rec_steps[n_rec - 1] != k:
                sample(y, k)
            raise _Stop(1, k)
        y_new = rk4_step(lambda z: _rhs_arrays_py(z, r, kirk), y, dt)
        if not np.isfinite(y_new).all():
            raise _Stop(3, k)
        below = y_new < 0.0
        beyond = y_new < -neg_tol
        clamped += int(np.count_nonzero(below & ~beyond))
        if beyond.any():
            raise _Stop(2, k)
        y_new[below] = 0.0
        return y_new

    def sample(y, k):
        nonlocal n_rec
        recs[n_rec] = y
        rec_steps[n_rec] = k
        n_rec += 1

    status, steps_done = 0, n_steps
    try:
        run_grid(step, y0, 0.0, 1.0, float(n_steps), stride, sample, step_checks_finite=True)
    except _Stop as stop:
        status, steps_done = stop.status, stop.steps_done
    counts[:] = n_rec, clamped, steps_done
    return status


def _integrate_loop(y0, r, kirk, dt, n_steps, stride, delta, neg_tol):
    """The closure loop: ``closure_loop`` of the compiled kernels, or its
    twin _closure_loop_py when ``_native.LIB`` is None.  Returns (recs,
    rec_steps, n_rec, status, clamped, steps_done)."""
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    r = np.ascontiguousarray(r, dtype=np.float64)
    if y0.shape != (6,) or r.shape != (8,):
        raise ValueError("the closure loop takes 6 moments and 8 rates")
    if n_steps < 0 or stride < 1:
        raise ValueError("the closure loop needs n_steps >= 0 and stride >= 1")
    n_rec_max = n_steps // stride + 2
    recs = np.empty((n_rec_max, 6))
    rec_steps = np.empty(n_rec_max, dtype=np.int64)
    counts = np.empty(3, dtype=np.int64)
    lib = _native.LIB
    loop = _closure_loop_py if lib is None else lib.closure_loop
    status = loop(y0, r, kirk, dt, n_steps, stride, delta, neg_tol, recs, rec_steps, counts)
    n_rec, clamped, steps_done = (int(c) for c in counts)
    return recs, rec_steps, n_rec, status, clamped, steps_done


def _checked_rhs(m, p: MinimalParams, kind, densities=None) -> np.ndarray:
    """_rhs_arrays_py on python floats, after checking that ``m`` is a
    MinimalMoments or a moment vector and that the densities, structural or
    given, lie above the consensus threshold (NaN does not).  On a vector
    far from unit mass a Kirkwood factor can still divide by 0
    (ClosureSingular)."""
    y = np.asarray(m.as_array() if isinstance(m, MinimalMoments) else m, dtype=float)
    if y.shape != (6,):
        raise ModelError(f"a moment vector has shape (6,), got {y.shape}")
    y = y.tolist()
    if densities is None:
        densities = y[0] + y[1] + y[4] + y[5], y[2] + y[3] + y[4] + y[5]
    rho_p, rho_m = densities
    if not rho_p * rho_m > DELTA_CONSENSUS:
        raise ConsensusBoundary(f"rho_+ rho_- = {rho_p * rho_m:.3e} at or below the "
                                f"consensus threshold {DELTA_CONSENSUS:g}")
    kirk = ClosureKind(kind) is ClosureKind.KIRKWOOD
    try:
        return _rhs_arrays_py(y, p.as_array().tolist(), kirk, densities)
    except ZeroDivisionError as exc:     # a Kirkwood rho^2 below the float range
        raise ClosureSingular(f"a closure denominator is 0 at rho_+ = {rho_p:.3e}, "
                              f"rho_- = {rho_m:.3e}") from exc


def closure_rhs(m, p: MinimalParams, kind) -> np.ndarray:
    """Derivative of the six moments, a MinimalMoments or a six-vector, under
    the requested pair closure."""
    return _checked_rhs(m, p, kind)


def weight_averaged_rhs(m, p: MinimalParams, kind,
                        rho_override: tuple[float, float] | None = None
                        ) -> tuple[float, float, float]:
    """Derivatives of (h_pp, h_mm, h_pm), the componentwise sums of the
    six-moment system; h_pm' is built as -(h_pp' + h_mm')/2, the
    conservation identity.

    ``rho_override`` substitutes external densities for the structural sums
    (rho_+ = h_pp + h_pm, rho_- = h_mm + h_pm).  The mixed stationary
    h-profile for unequal flip rates balances the equations only with the
    densities held as parameters; with equal flip rates the two readings
    coincide.
    """
    rhs = _checked_rhs(m, p, kind, rho_override).tolist()
    dh_pp = rhs[0] + rhs[1]
    dh_mm = rhs[2] + rhs[3]
    return dh_pp, dh_mm, -0.5 * (dh_pp + dh_mm)


# -- trajectories -------------------------------------------------------------


@dataclass
class ClosureTrajectory:
    times: np.ndarray
    moments: np.ndarray                  # (n, 6)
    kind: ClosureKind
    params: MinimalParams
    status: str = "completed"            # or "consensus_boundary"
    clamp_events: int = 0
    kirkwood_artifact: bool = False

    @property
    def rho_p(self) -> np.ndarray:
        y = self.moments
        return y[:, 0] + y[:, 1] + y[:, 4] + y[:, 5]

    @property
    def rho_m(self) -> np.ndarray:
        y = self.moments
        return y[:, 2] + y[:, 3] + y[:, 4] + y[:, 5]

    @property
    def f_pm(self) -> np.ndarray:
        return self.moments[:, 4]

    def final(self) -> MinimalMoments:
        return MinimalMoments.from_array(self.moments[-1])


def check_initial_moments(m0: MinimalMoments) -> None:
    """Raise ModelError unless integrate_closure can start from m0."""
    if not 0.0 < m0.rho_p < 1.0:
        raise ModelError("initial rho_+ must lie in (0, 1)")


def integrate_closure(
    m0: MinimalMoments,
    p: MinimalParams,
    kind,
    dt: float,
    T: float,
    sample_stride: int = 1,
) -> ClosureTrajectory:
    """RK4 trajectory of the closure system, sampled at t = 0, every
    sample_stride steps and at T, or at the step where it stops; T off the
    dt grid raises ModelError (``stepping.grid_steps``).

    Stops early (status "consensus_boundary") when rho_+ rho_- falls to the
    consensus threshold; tiny negative undershoots in (-1e-9, 0) are clamped
    to zero and counted, larger ones raise IntegrationError, and so does a
    non-finite step.  Conservation of rho_+ + rho_- (and of rho_+ itself for
    equal flip rates) is asserted on every sample.
    """
    n_steps = grid_steps(dt, T, sample_stride)
    check_initial_moments(m0)
    kind = ClosureKind(kind)
    kirk = kind is ClosureKind.KIRKWOOD
    recs, rec_steps, n_rec, status, clamped, steps_done = _integrate_loop(
        m0.as_array(), p.as_array(), int(kirk), dt, n_steps, sample_stride,
        DELTA_CONSENSUS, NEG_CLAMP_TOL)
    if status == 2:
        raise IntegrationError(
            "closure integration produced a negative component beyond tolerance "
            f"after {steps_done} steps; reduce dt")
    if status == 3:
        raise IntegrationError(f"non-finite state in the step from t={steps_done * dt:.6g}")
    if clamped:
        log.info("closure integration clamped %d tiny negative components", clamped)
    traj = ClosureTrajectory(
        times=rec_steps[:n_rec] * dt, moments=recs[:n_rec].copy(), kind=kind, params=p,
        status="consensus_boundary" if status == 1 else "completed",
        clamp_events=int(clamped),
    )

    rho_p, rho_m = traj.rho_p, traj.rho_m
    totals = rho_p + rho_m
    if np.max(np.abs(totals - totals[0])) > 1e-9:
        raise InvariantViolation("mass conservation violated along closure trajectory")
    if p.alpha_pm == p.alpha_mp and np.max(np.abs(rho_p - rho_p[0])) > 1e-9:
        raise InvariantViolation("rho_+ conservation violated with equal flip rates")
    if kirk:
        y = traj.moments
        h_sum = y[:, 0] + y[:, 1] + y[:, 2] + y[:, 3]
        traj.kirkwood_artifact = bool(np.any((h_sum < 1e-3) & (rho_p * rho_m > 0.1)))
        if traj.kirkwood_artifact:
            log.warning("kirkwood trajectory entered the h_pp + h_mm ~ 0 artifact regime")
    return traj


# -- stationary families ------------------------------------------------------


def stationary_polarized(p: MinimalParams, rho_p: float, g_pm: float) -> MinimalMoments:
    """Polarized stationary family: no cross links, within-state link balance.

    Requires beta_pm = 0; rho_+ in [0, 1] and g_pm in [0, min(rho_+, rho_-)]
    are free parameters.  The within-state masses split as
    f = beta/(beta+gamma) and g = gamma/(beta+gamma) of the available mass.
    """
    if p.beta_pm != 0.0:
        raise ModelError("the polarized stationary family requires beta_pm = 0")
    if not 0.0 <= rho_p <= 1.0:
        raise ModelError("rho_p must lie in [0, 1]")
    rho_m = 1.0 - rho_p
    if not 0.0 <= g_pm <= min(rho_p, rho_m) + 1e-15:
        raise ModelError("g_pm must lie in [0, min(rho_p, 1 - rho_p)]")
    d_p = p.beta_pp + p.gamma_pp
    d_m = p.beta_mm + p.gamma_mm
    if d_p <= 0 or d_m <= 0:
        raise ModelError("beta_pp + gamma_pp and beta_mm + gamma_mm must be positive")
    q_p = (rho_p - g_pm) / d_p
    q_m = (rho_m - g_pm) / d_m
    return MinimalMoments(
        f_pp=p.beta_pp * q_p,
        g_pp=p.gamma_pp * q_p,
        f_mm=p.beta_mm * q_m,
        g_mm=p.gamma_mm * q_m,
        f_pm=0.0,
        g_pm=g_pm,
    )


def stationary_mixed_h(p: MinimalParams, rho_p: float) -> tuple[float, float, float]:
    """Mixed stationary weight-averaged densities (h_pp, h_mm, h_pm).

    h_pp = a_mp^2 rho_p^2 / D^2, h_mm = a_pm^2 rho_m^2 / D^2,
    h_pm = a_mp a_pm rho_p rho_m / D^2 with D = a_mp rho_p + a_pm rho_m;
    for equal flip rates these reduce exactly to (rho_p^2, rho_m^2,
    rho_p rho_m).
    """
    if not (p.alpha_pm > 0 and p.alpha_mp > 0):
        raise ModelError("stationary_mixed_h requires positive flip rates")
    if not 0.0 <= rho_p <= 1.0:
        raise ModelError("rho_p must lie in [0, 1]")
    rho_m = 1.0 - rho_p
    if p.alpha_pm == p.alpha_mp:
        return rho_p * rho_p, rho_m * rho_m, rho_p * rho_m
    D = p.alpha_mp * rho_p + p.alpha_pm * rho_m
    if D == 0.0:
        raise ModelError("degenerate combination of flip rates and densities")
    return (
        (p.alpha_mp * rho_p / D) ** 2,
        (p.alpha_pm * rho_m / D) ** 2,
        p.alpha_mp * p.alpha_pm * rho_p * rho_m / (D * D),
    )


# -- linearization ------------------------------------------------------------


@dataclass
class JacobianReport:
    matrix: np.ndarray            # 6 x 6, ordering (f_pp, g_pp, f_mm, g_mm, f_pm, g_pm)
    eigenvalues: np.ndarray       # complex (6,)
    lambda_pm: float              # the decoupled f_pm diagonal entry
    kind: ClosureKind


def linearized_jacobian(p: MinimalParams, m_star: MinimalMoments, kind) -> JacobianReport:
    """Linearization around a polarized stationary point (f_pm = 0).

    Column j of the Jacobian is Im f(y + i h e_j) / h with h = 1e-30, the
    complex-step derivative (Squire & Trapp, SIAM Review 40, 1998) of the
    closure right-hand side f, evaluated on python complex scalars.  It
    takes no difference, so for this rational f it is exact to rounding.
    The input must be stationary to _STATIONARY_TOL and have f_pm = 0.
    """
    if m_star.f_pm != 0.0:
        raise ModelError("linearized_jacobian expects a polarized point with f_pm = 0")
    resid = float(np.max(np.abs(closure_rhs(m_star, p, kind))))
    if resid > _STATIONARY_TOL:
        raise ModelError(f"input is not stationary: residual {resid:.3e} > {_STATIONARY_TOL:g}")
    kind = ClosureKind(kind)
    kirk = kind is ClosureKind.KIRKWOOD
    y, r = m_star.as_array().tolist(), p.as_array().tolist()
    h = 1e-30
    J = np.empty((6, 6))
    for j in range(6):
        z = list(y)
        z[j] = complex(y[j], h)
        J[:, j] = _rhs_arrays_py(z, r, kirk).imag / h
    eig = np.linalg.eigvals(J)
    return JacobianReport(matrix=J, eigenvalues=eig, lambda_pm=float(J[4, 4]), kind=kind)


def finite_difference_jacobian(y, p: MinimalParams, kind) -> np.ndarray:
    """Central-difference Jacobian of the closure right-hand side, step 1e-6."""
    h = 1e-6
    y = np.asarray(y, dtype=float)
    J = np.empty((6, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        J[:, j] = (closure_rhs(y + e, p, kind) - closure_rhs(y - e, p, kind)) / (2 * h)
    return J


def polarization_stable(p: MinimalParams, rho_p: float) -> tuple[bool, float]:
    """Linear-stability inequality of the polarized family; margin = lhs - rhs.

    The threshold compares the cross-link removal rate against the flip
    pressure of the mixed weight-averaged densities,

        gamma_pm > beta_pp/(beta_pp+gamma_pp) * a_pm a_mp^2 rho_p / (2 D^2)
                 + beta_mm/(beta_mm+gamma_mm) * a_mp a_pm^2 rho_m / (2 D^2),

    with D = a_mp rho_p + a_pm rho_m.  A margin above zero certifies the
    linear condition; below zero is reported but not certified unstable.
    """
    if not 0.0 <= rho_p <= 1.0:
        raise ModelError("rho_p must lie in [0, 1]")
    rho_m = 1.0 - rho_p
    d_p = p.beta_pp + p.gamma_pp
    d_m = p.beta_mm + p.gamma_mm
    if d_p <= 0 or d_m <= 0:
        raise ModelError("beta + gamma must be positive within each state")
    D = p.alpha_mp * rho_p + p.alpha_pm * rho_m
    if D == 0.0:
        rhs = 0.0
    else:
        rhs = (p.beta_pp / d_p) * p.alpha_pm * p.alpha_mp ** 2 * rho_p / (2 * D * D) \
            + (p.beta_mm / d_m) * p.alpha_mp * p.alpha_pm ** 2 * rho_m / (2 * D * D)
    margin = p.gamma_pm - rhs
    return margin > 0.0, margin


# -- decay envelopes ----------------------------------------------------------


def _cross_decay_rate(p: MinimalParams, kind) -> float:
    """The rate at which the closure lets cross links decay without cross
    creation: gamma_pm - (alpha_pm + alpha_mp) under Kirkwood and
    gamma_pm - (alpha_pm + alpha_mp)/2 under the conditional closure.  It is
    the rate of ``decay_envelope_check`` and, required positive, the
    hypothesis of ``check_continuation``."""
    alpha_sum = p.alpha_pm + p.alpha_mp
    kirk = ClosureKind(kind) is ClosureKind.KIRKWOOD
    return p.gamma_pm - (alpha_sum if kirk else 0.5 * alpha_sum)


@dataclass
class EnvelopeReport:
    holds: bool
    rate: float
    max_excess: float             # max of f_pm(t) / envelope(t) - 1
    first_violation_t: float | None = None


def decay_envelope_check(traj: ClosureTrajectory) -> EnvelopeReport:
    """Check f_pm(t) <= exp(-rate t) f_pm(0) (1 + 1e-9) at every sample.

    rate is ``_cross_decay_rate`` of the rates and the closure kind that
    ``traj`` was integrated with.  The bounds assume no cross-link creation
    (beta_pm = 0); a failure is reported, not raised.
    """
    rate = _cross_decay_rate(traj.params, traj.kind)
    if not rate > 0:
        raise ModelError("decay envelope requires a positive decay rate")
    t = traj.times - traj.times[0]
    f = traj.f_pm
    envelope = np.exp(-rate * t) * f[0] * (1.0 + 1e-9)
    if f[0] == 0.0:
        ok = bool(np.all(f == 0.0))
        return EnvelopeReport(holds=ok, rate=rate, max_excess=float(np.max(f)))
    ratio = f / (np.exp(-rate * t) * f[0])
    excess = float(np.max(ratio) - 1.0)
    bad = np.nonzero(f > envelope)[0]
    return EnvelopeReport(
        holds=bad.size == 0,
        rate=rate,
        max_excess=excess,
        first_violation_t=float(traj.times[bad[0]]) if bad.size else None,
    )


# -- small-epsilon continuation ----------------------------------------------


@dataclass
class StationaryBranch:
    eps: float
    moments: MinimalMoments
    dfdeps: float
    residual: float
    kind: ClosureKind
    newton_iterations: int = 0

    def __post_init__(self):
        if self.residual > 1e-10:
            log.warning("stationary branch residual %.3e above 1e-10 "
                        "(exact stationarity with f_pm > 0 needs equal flip rates)",
                        self.residual)


def _phi_root_gpm(p: MinimalParams, rho_p: float, rho_m: float) -> float:
    """h_pm solving the factored cross-pair balance at f_pm = 0."""
    return 0.5 * (p.alpha_pm + p.alpha_mp) / (p.alpha_pm / rho_p + p.alpha_mp / rho_m)


def _reduced_residual(x, r, rho_p: float, rho_m: float, kirk: bool,
                      use_phi: bool) -> np.ndarray:
    f_pp, f_mm, f_pm, g_pm = x.tolist()
    g_pp = rho_p - f_pm - g_pm - f_pp
    g_mm = rho_m - f_pm - g_pm - f_mm
    rhs = _rhs_arrays_py((f_pp, g_pp, f_mm, g_mm, f_pm, g_pm), r, kirk)
    if not use_phi:
        return rhs[[0, 2, 4, 5]]
    # (df_pm + dg_pm) factors as f_pm * Phi; use Phi to desingularize the
    # f_pm = 0 family
    a_pm, a_mp = r[0], r[1]
    phi = 0.5 * (a_pm + a_mp) - (f_pm + g_pm) * (a_pm / rho_p + a_mp / rho_m)
    return np.array([rhs[0], rhs[2], rhs[4], phi])


def with_cross_creation(p: MinimalParams, eps: float) -> MinimalParams:
    """p with the cross-link creation rate beta_pm, the continuation's eps, set to eps."""
    return replace(p, beta_pm=eps)


def check_continuation(p: MinimalParams, rho_p: float, kind) -> None:
    """Raise unless continue_small_epsilon can start Newton at eps = p.beta_pm:
    rho_p in (0, 1) with rho_p (1 - rho_p) above the consensus threshold,
    positive rates but beta_pm, a positive ``_cross_decay_rate``
    (ModelError otherwise) and an admissible seed g_pm (else
    ContinuationFailed)."""
    if not 0.0 < rho_p < 1.0:
        raise ModelError("rho_p must lie in (0, 1) for the continuation")
    if not rho_p * (1.0 - rho_p) > DELTA_CONSENSUS:
        raise ModelError(f"rho_p (1 - rho_p) = {rho_p * (1.0 - rho_p):.3e} at or below the "
                         f"consensus threshold {DELTA_CONSENSUS:g}")
    for rate in fields(p):
        if rate.name != "beta_pm" and not getattr(p, rate.name) > 0:
            raise ModelError(f"continuation requires positive rate {rate.name}")
    if not _cross_decay_rate(p, kind) > 0:
        if ClosureKind(kind) is ClosureKind.KIRKWOOD:
            raise ModelError("kirkwood continuation requires gamma_pm > alpha_pm + alpha_mp")
        raise ModelError("conditional continuation requires 2 gamma_pm > alpha_pm + alpha_mp")
    g_star = _phi_root_gpm(p, rho_p, 1.0 - rho_p)
    if g_star > min(rho_p, 1.0 - rho_p) + 1e-12:
        raise ContinuationFailed(
            f"seed g_pm = {g_star:.4g} falls outside [0, min(rho_p, 1 - rho_p)]; "
            "no admissible branch for these flip rates and densities")


def continue_small_epsilon(p: MinimalParams, rho_p: float, kind) -> StationaryBranch:
    """Continue the polarized stationary family into small cross-link creation.

    The cross-creation rate eps = p.beta_pm perturbs the family; Newton
    iteration runs on the reduced four-variable system (f_pp, f_mm, f_pm,
    g_pm) with the within-state g's eliminated by the fixed densities.  For
    the conditional closure the cross-pair equations factor as f_pm * Phi,
    and replacing their sum by Phi makes the eps = 0 linearization regular;
    the branch is seeded at the polarized point whose g_pm solves Phi = 0.
    The Kirkwood reduced system is rank-deficient at equal flip rates (a
    curve of stationary points), so Newton steps use least squares there.
    The preconditions are those of check_continuation.

    Returns the branch point, its residual against the full six-component
    right-hand side, and the branch slope df_pm/d eps at 0 (one-sided
    difference).  Note exact full-system stationarity with f_pm > 0 requires
    equal flip rates; otherwise rho_+ drifts at order eps.
    """
    check_continuation(p, rho_p, kind)
    eps = p.beta_pm
    kind = ClosureKind(kind)
    kirk = kind is ClosureKind.KIRKWOOD
    rho_m = 1.0 - rho_p
    seed_g = min(_phi_root_gpm(p, rho_p, rho_m), rho_p, rho_m)
    seed_m = stationary_polarized(with_cross_creation(p, 0.0), rho_p, seed_g)

    def solve_at(eps_val: float):
        r = with_cross_creation(p, eps_val).as_array().tolist()
        x = np.array([seed_m.f_pp, seed_m.f_mm, 0.0, seed_m.g_pm])
        use_phi = not kirk
        h = 1e-7
        for it in range(1, _NEWTON_MAX_ITER + 1):
            G = _reduced_residual(x, r, rho_p, rho_m, kirk, use_phi)
            if np.max(np.abs(G)) < 1e-13:
                return x, it
            J = np.empty((4, 4))
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                J[:, j] = (_reduced_residual(x + e, r, rho_p, rho_m, kirk, use_phi)
                           - _reduced_residual(x - e, r, rho_p, rho_m, kirk, use_phi)) / (2 * h)
            if use_phi:
                try:
                    step = np.linalg.solve(J, G)
                except np.linalg.LinAlgError as exc:
                    raise ContinuationFailed(f"singular Newton system: {exc}") from exc
            else:
                step, *_ = np.linalg.lstsq(J, G, rcond=None)
            x = x - step
        G = _reduced_residual(x, r, rho_p, rho_m, kirk, use_phi)
        if np.max(np.abs(G)) < 1e-10:
            return x, _NEWTON_MAX_ITER
        raise ContinuationFailed(
            f"Newton did not converge in {_NEWTON_MAX_ITER} iterations at eps = {eps_val:g} "
            f"(residual {np.max(np.abs(G)):.3e})")

    def assemble(x, eps_val):
        f_pp, f_mm, f_pm, g_pm = x
        f_pm = max(f_pm, 0.0) if f_pm > -1e-15 else f_pm
        g_pp = rho_p - f_pm - g_pm - f_pp
        g_mm = rho_m - f_pm - g_pm - f_mm
        y = np.array([f_pp, g_pp, f_mm, g_mm, f_pm, g_pm])
        if np.any(y < -1e-12):
            raise ContinuationFailed(
                f"branch at eps = {eps_val:g} left the admissible region: {y}")
        p_eps = with_cross_creation(p, eps_val)
        resid = float(np.max(np.abs(closure_rhs(np.maximum(y, 0.0), p_eps, kind))))
        return np.maximum(y, 0.0), resid

    x, iters = solve_at(eps)
    y, resid = assemble(x, eps)

    delta = 1e-6
    x0, _ = solve_at(0.0)
    xd, _ = solve_at(delta)
    dfdeps = (xd[2] - x0[2]) / delta
    if not dfdeps > 0:
        raise ContinuationFailed(f"branch slope df_pm/deps = {dfdeps:.3e} is not positive")
    f_pm_val = float(y[4])
    if eps > 0 and not 0.0 < f_pm_val <= 2.0 * dfdeps * eps + 1e-12:
        raise ContinuationFailed(
            f"f_pm = {f_pm_val:.3e} is not first order in eps = {eps:g} "
            f"(slope {dfdeps:.3e})")
    return StationaryBranch(
        eps=eps,
        moments=MinimalMoments.from_array(y),
        dfdeps=float(dfdeps),
        residual=resid,
        kind=kind,
        newton_iterations=iters,
    )
