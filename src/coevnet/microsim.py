"""Integration of the continuous microscopic system with co-evolving weights.

States follow the mean-field interaction drift (1/N) sum_j U(s_i, s_j, w_ij)
plus an optional external force; weights follow dw_ij/dt = V(s_i, s_j, w_ij).
Both right-hand sides carry independent 1/eps prefactors so the fast-network
and fast-state regimes are reachable without reparameterizing time.  With
a vector of anchor masses in place of the equal masses 1/N the same flow is
the characteristics flow of ``characteristics.py``.

Weight symmetry: when the model's V is exchange-symmetric and the initial
weight matrix is symmetric, the weight derivative matrix is built from its
upper triangle and mirrored, which keeps trajectories bitwise symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import IntegrationError, InvariantViolation, ModelError, NullclineNotFound
from .models import PotentialModel, SmoothModel, _probe_points
from .stepping import rk4_step, rkf45_advance, run_grid

NULLCLINE_TOL = 1e-12
_NULLCLINE_MAX_STEPS = 100


@dataclass
class AgentConfiguration:
    """N agent states plus the N x N weight matrix at time t."""

    states: np.ndarray        # (N, m)
    weights: np.ndarray       # (N, N), zero diagonal
    symmetric: bool = True
    t: float = 0.0

    def __post_init__(self):
        self.states = np.array(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        self.weights = np.array(self.weights, dtype=float)
        N = self.states.shape[0]
        if N < 2:
            raise InvariantViolation("need at least two agents")
        if self.weights.shape != (N, N):
            raise InvariantViolation(f"weights must be ({N}, {N}), got {self.weights.shape}")
        if not (np.all(np.isfinite(self.states)) and np.all(np.isfinite(self.weights))):
            raise InvariantViolation("non-finite entries in configuration")
        if np.any(np.diagonal(self.weights) != 0.0):
            raise InvariantViolation("weight matrix must have zero diagonal")
        if self.symmetric and not np.array_equal(self.weights, self.weights.T):
            raise InvariantViolation("symmetric flag set but weight matrix is not symmetric")

    @property
    def N(self) -> int:
        return self.states.shape[0]

    @property
    def m(self) -> int:
        return self.states.shape[1]

    def replace(self, states: np.ndarray, weights: np.ndarray, t: float) -> "AgentConfiguration":
        new = object.__new__(AgentConfiguration)
        new.states = states
        new.weights = weights
        new.symmetric = self.symmetric
        new.t = t
        return new


@dataclass
class EnergyReport:
    energy: float
    dissipation: float
    t: float
    dissipation_pairwise: float = 0.0

    def __post_init__(self):
        if self.dissipation < 0:
            raise InvariantViolation("dissipation must be nonnegative")


@dataclass
class MicroTrajectory:
    times: list[float] = field(default_factory=list)
    configs: list[AgentConfiguration] = field(default_factory=list)
    # Always False: integrators raise IntegrationError instead of returning a
    # truncated trajectory.  Kept because perfbench/workloads.py still reads it.
    aborted: bool = False

    def final(self) -> AgentConfiguration:
        return self.configs[-1]


def _pair_grids(states: np.ndarray):
    N, m = states.shape
    si = np.broadcast_to(states[:, None, :], (N, N, m))
    sj = np.broadcast_to(states[None, :, :], (N, N, m))
    return si, sj


@lru_cache(maxsize=8)
def _strict_upper(N: int) -> np.ndarray:
    """Read-only N x N mask of the strict upper triangle, the mask np.triu(., 1) builds."""
    mask = np.triu(np.ones((N, N), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _writable(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a if a.flags.writeable else a.copy()


def micro_rhs(
    cfg: AgentConfiguration,
    model: SmoothModel,
    eps_w: float = 1.0,
    eps_s: float = 1.0,
    masses: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Drift of states and weights.

    ds_i/dt = (1/eps_s) (1/N) sum_{j != i} U(s_i, s_j, w_ij) + U0(s_i)
    dw_ij/dt = (1/eps_w) V(s_i, s_j, w_ij), zero diagonal.

    With a mass vector the interaction term is instead
    (1/eps_s) sum_{j != i} masses_j U(s_i, s_j, w_ij): the characteristics
    flow of the pair-closed kinetic equation, whose anchors carry unequal
    masses.  A non-finite U or V raises IntegrationError naming cfg.t.
    """
    if not (eps_w > 0 and eps_s > 0):
        raise ModelError("eps_w and eps_s must be positive")
    states = cfg.states
    N = states.shape[0]
    si, sj = _pair_grids(states)
    U = _writable(model.U(si, sj, cfg.weights))
    V = _writable(model.V(si, sj, cfg.weights))
    if not (np.isfinite(U).all() and np.isfinite(V).all()):
        raise IntegrationError(f"non-finite force evaluation at t={cfg.t:.6g}")
    idx = np.arange(N)
    U[idx, idx, :] = 0.0
    V[idx, idx] = 0.0
    if masses is None:
        ds = U.sum(axis=1) / (N * eps_s)
    else:
        ds = np.einsum("j,ijk->ik", masses, U) / eps_s
    if model.U0 is not None:
        ds = ds + model.U0(states)
    if cfg.symmetric and model.symmetric_V:
        V = np.where(_strict_upper(N), V, 0.0)   # np.triu(V, 1) without rebuilding the mask
        V = V + V.T
    dw = V / eps_w
    return ds, dw


def _flatten(cfg: AgentConfiguration) -> np.ndarray:
    """States then weights, in one flat vector: the state run_grid advances."""
    return np.concatenate([cfg.states.ravel(), cfg.weights.ravel()])


def _unflatten(cfg: AgentConfiguration, y: np.ndarray, t: float) -> AgentConfiguration:
    """The configuration at time t whose states and weights are views of y."""
    N, m = cfg.states.shape
    return cfg.replace(y[:N * m].reshape(N, m), y[N * m:].reshape(N, N), t)


def integrate_micro(
    cfg: AgentConfiguration,
    model: SmoothModel,
    dt: float,
    T: float,
    eps_w: float = 1.0,
    eps_s: float = 1.0,
    method: str = "rk4",
    callback: Callable[[AgentConfiguration], None] | None = None,
    store: bool = True,
    sample_stride: int = 1,
    masses: np.ndarray | None = None,
) -> MicroTrajectory:
    """Integrate the microscopic system on the grid cfg.t + k dt.

    method is one of "rk4", "euler" (fixed step) or "rkf45" (adaptive
    substeps between grid points, abs/rel tolerances 1e-8/1e-6).  Samples
    are taken at k = 0, every sample_stride-th step and the last step; each
    is stored (or, with store=False, kept only as the latest) and passed to
    callback.  masses, if given, replaces the equal masses 1/N of the
    interaction drift (see micro_rhs).  A non-finite force or state, or an
    RKF45 substep that misses its tolerance at the minimum step size, raises
    IntegrationError naming the time the failing step started from.
    """
    if method not in ("rk4", "euler", "rkf45"):
        raise ModelError(f"unknown method {method!r}")
    if cfg.m != model.m:
        raise ModelError(f"configuration dimension m={cfg.m} does not match model m={model.m}")

    sym = cfg.symmetric and model.symmetric_V
    traj = MicroTrajectory()

    def step(y: np.ndarray, t: float) -> np.ndarray:
        def f(z):
            ds, dw = micro_rhs(_unflatten(cfg, z, t), model, eps_w=eps_w, eps_s=eps_s,
                               masses=masses)
            return np.concatenate([ds.ravel(), dw.ravel()])
        if method == "rk4":
            y = rk4_step(f, y, dt)
        elif method == "euler":
            y = y + dt * f(y)
        else:
            y = rkf45_advance(f, y, dt, t0=t)
        W = _unflatten(cfg, y, t).weights
        # a non-finite W is left to run_grid's IntegrationError
        if sym and not np.array_equal(W, W.T) and np.isfinite(W).all():
            raise InvariantViolation("weight symmetry lost during integration")
        return y

    def sample(y: np.ndarray, t: float) -> None:
        c = _unflatten(cfg, y.copy(), t)
        if store:
            traj.times.append(t)
            traj.configs.append(c)
        else:
            traj.times = [t]
            traj.configs = [c]
        if callback is not None:
            callback(c)

    run_grid(step, _flatten(cfg), cfg.t, dt, T, sample_stride, sample)
    return traj


def check_diffusive_model(model: SmoothModel) -> None:
    """Raise ModelError unless simulate_diffusive can run the model.

    It needs a state diffusion coefficient Q, and it has no weight noise, so
    a weight diffusion coefficient R that is nonzero on the probe grid is
    rejected rather than ignored.
    """
    if model.Q is None:
        raise ModelError("simulate_diffusive requires a model with a state diffusion coefficient Q")
    if model.R is not None:
        s, sig, w = _probe_points(model.m, 64)
        if np.any(np.asarray(model.R(s, sig, w), dtype=float) != 0.0):
            raise ModelError("simulate_diffusive has no weight noise: the weight diffusion "
                             "coefficient R must be zero")


def simulate_diffusive(
    cfg: AgentConfiguration,
    model: SmoothModel,
    dt: float,
    T: float,
    seed: int,
    sample_stride: int = 1,
) -> MicroTrajectory:
    """Euler-Maruyama for state diffusion with deterministic weight drift.

    States advance by drift*dt + sqrt(2 Q(s_i) dt) xi with xi standard normal
    per component; weights take a deterministic Euler step of V.  Fixed seed
    gives a reproducible path.  Sampling and failures are as in
    integrate_micro.
    """
    check_diffusive_model(model)
    rng = np.random.default_rng(seed)
    sym = cfg.symmetric and model.symmetric_V
    traj = MicroTrajectory()

    def step(y: np.ndarray, t: float) -> np.ndarray:
        c = _unflatten(cfg, y, t)
        ds, dw = micro_rhs(c, model, eps_w=1.0, eps_s=1.0)
        q = np.asarray(model.Q(c.states), dtype=float)
        xi = rng.standard_normal(size=ds.shape)
        states = c.states + ds * dt + np.sqrt(2.0 * q * dt)[:, None] * xi
        weights = c.weights + dw * dt
        if sym:
            weights = np.where(_strict_upper(len(weights)), weights, 0.0)
            weights = weights + weights.T
        return np.concatenate([states.ravel(), weights.ravel()])

    def sample(y: np.ndarray, t: float) -> None:
        traj.times.append(t)
        traj.configs.append(_unflatten(cfg, y.copy(), t))

    run_grid(step, _flatten(cfg), cfg.t, dt, T, sample_stride, sample)
    return traj


def energy_report(cfg: AgentConfiguration, pot: PotentialModel) -> EnergyReport:
    """Energy and dissipation of a configuration under a pair potential.

    energy = (1/2N) sum_{i != j} F(s_i, s_j, w_ij).  The dissipation is the
    velocity-consistent form: with the gradient-flow velocities
    ds_i/dt = -(1/N) sum_j grad_s F and dw_ij/dt = -c d_w F,

        dissipation = sum_i |(1/N) sum_{j != i} grad_s F(s_i, s_j, w_ij)|^2
                      + (c / 2N) sum_{i != j} (d_w F(s_i, s_j, w_ij))^2

    which makes dE/dt = -dissipation an exact identity along trajectories.
    ``dissipation_pairwise`` reports the alternative non-averaged form
    sum_{i != j} (|grad_s F|^2 + c (d_w F)^2).
    """
    if cfg.m != pot.m:
        raise ModelError("configuration and potential dimensions differ")
    states, weights = cfg.states, cfg.weights
    N = states.shape[0]
    si, sj = _pair_grids(states)
    F = _writable(pot.F(si, sj, weights))
    gs = _writable(pot.eval_grad_s(si, sj, weights))
    dw = _writable(pot.eval_d_w(si, sj, weights))
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(gs)) and np.all(np.isfinite(dw))):
        raise IntegrationError("non-finite potential evaluation in energy report")
    idx = np.arange(N)
    F[idx, idx] = 0.0
    gs[idx, idx, :] = 0.0
    dw[idx, idx] = 0.0
    energy = float(F.sum()) / (2.0 * N)
    mean_grad = gs.sum(axis=1) / N                      # (N, m)
    state_term = float(np.sum(mean_grad * mean_grad))
    weight_sq = float(np.sum(dw * dw))
    dissipation = state_term + pot.c * weight_sq / (2.0 * N)
    pairwise = float(np.sum(gs * gs)) + pot.c * weight_sq
    return EnergyReport(energy=energy, dissipation=dissipation, t=cfg.t,
                        dissipation_pairwise=pairwise)


def _nullcline_array(model: SmoothModel, si: np.ndarray, sj: np.ndarray,
                     max_bracket: float = 1e6) -> np.ndarray:
    """Roots of w -> V(s, sigma, w) for broadcast state grids, elementwise.

    Each element is bracketed in [-b, b], b = 1, 4, 16, ... up to
    max_bracket; no sign change raises NullclineNotFound.  A root on a
    bracket endpoint is returned as is.  Otherwise the Illinois variant of
    regula falsi (Dowell & Jarratt 1971) shrinks the bracket, with a
    bisection step wherever an endpoint value is not finite or the secant
    point leaves the bracket.  An element stops at an exact zero of V or
    when its iterate moves by at most 2 ulps; an affine V (every catalog
    model) stops after two to four steps.  The last residual must be at
    most NULLCLINE_TOL (a NaN residual fails too).
    """
    shape = np.broadcast_shapes(si.shape[:-1], sj.shape[:-1])

    def V_at(w):
        return np.asarray(model.V(si, sj, w), dtype=float)

    bound = 1.0
    lo = np.full(shape, -1.0)
    hi = np.full(shape, 1.0)
    flo = V_at(lo)
    fhi = V_at(hi)
    unbracketed = np.sign(flo) == np.sign(fhi)
    while np.any(unbracketed) and bound < max_bracket:
        bound *= 4.0
        lo = np.where(unbracketed, -bound, lo)
        hi = np.where(unbracketed, bound, hi)
        flo = np.where(unbracketed, V_at(lo), flo)
        fhi = np.where(unbracketed, V_at(hi), fhi)
        unbracketed = np.sign(flo) == np.sign(fhi)
    if np.any(unbracketed & (flo != 0.0) & (fhi != 0.0)):
        raise NullclineNotFound(
            f"V has no sign change in |w| <= {max_bracket:g} for some state pair")
    on_lo = flo == 0.0
    done = on_lo | (fhi == 0.0)
    w = np.where(on_lo, lo, np.where(done, hi, np.nan))   # NaN: no iterate yet
    fw = np.where(on_lo, flo, fhi)
    side = np.zeros(shape, dtype=int)   # -1 (+1): the last step replaced lo (hi)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while not done.all():
            if steps == _NULLCLINE_MAX_STEPS:
                raise NullclineNotFound(
                    f"nullcline iteration did not converge in {steps} steps")
            steps += 1
            # the secant point, as a correction to the endpoint with the smaller |V|
            near_lo = np.abs(flo) < np.abs(fhi)
            a, fa = np.where(near_lo, lo, hi), np.where(near_lo, flo, fhi)
            b, fb = np.where(near_lo, hi, lo), np.where(near_lo, fhi, flo)
            new = a - fa * (b - a) / (fb - fa)
            secant = np.isfinite(fb - fa) & (new >= lo) & (new <= hi)
            new = np.where(secant, new, 0.5 * (lo + hi))
            fnew = V_at(new)
            active = ~done
            done = done | (fnew == 0.0) | (np.abs(new - w) <= 2.0 * np.spacing(np.abs(new)))
            w = np.where(active, new, w)
            fw = np.where(active, fnew, fw)
            to_lo = np.sign(fnew) == np.sign(flo)
            # Illinois: halve the kept endpoint's value when one side is replaced twice
            fhi = np.where(to_lo & (side == -1), 0.5 * fhi, fhi)
            flo = np.where(~to_lo & (side == 1), 0.5 * flo, flo)
            lo, flo = np.where(to_lo, new, lo), np.where(to_lo, fnew, flo)
            hi, fhi = np.where(to_lo, hi, new), np.where(to_lo, fhi, fnew)
            side = np.where(to_lo, -1, 1)
    resid = np.abs(fw)
    if not np.all(resid <= NULLCLINE_TOL):
        raise NullclineNotFound(
            f"nullcline residual {float(resid.max()):.3e} above {NULLCLINE_TOL:g}")
    return w


def solve_weight_nullcline(model: SmoothModel, s, sigma) -> float:
    """Solve V(s, sigma, w) = 0 for w (see ``_nullcline_array``)."""
    si = np.asarray(s, dtype=float).reshape(1, model.m)
    sj = np.asarray(sigma, dtype=float).reshape(1, model.m)
    return float(_nullcline_array(model, si, sj)[0])


@dataclass
class StateTrajectory:
    times: list[float] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)

    def final(self) -> np.ndarray:
        return self.states[-1]


def integrate_reduced(
    states: np.ndarray,
    model: SmoothModel,
    dt: float,
    T: float,
) -> StateTrajectory:
    """Integrate the instantaneous-network-formation limit by RK4.

    Each pair's weight is slaved to the nullcline w = omega(s_i, s_j) and the
    states follow ds_i/dt = (1/N) sum_{j != i} U(s_i, s_j, omega(s_i, s_j)).
    """
    states = np.array(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    N, m = states.shape
    idx = np.arange(N)

    def rhs(flat: np.ndarray) -> np.ndarray:
        s = flat.reshape(N, m)
        si, sj = _pair_grids(s)
        omega = _nullcline_array(model, si, sj)
        U = _writable(model.U(si, sj, omega))
        U[idx, idx, :] = 0.0
        return (U.sum(axis=1) / N).ravel()

    traj = StateTrajectory()

    def sample(y: np.ndarray, t: float) -> None:
        traj.times.append(t)
        traj.states.append(y.reshape(N, m).copy())

    run_grid(lambda y, t: rk4_step(rhs, y, dt), states.ravel(), 0.0, dt, T, 1, sample)
    return traj
