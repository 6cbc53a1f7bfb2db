"""Integration of the continuous microscopic system with co-evolving weights.

States follow the mean-field interaction drift (1/N) sum_j U(s_i, s_j, w_ij)
plus an optional external force; weights follow dw_ij/dt = V(s_i, s_j, w_ij).
Both right-hand sides carry independent 1/eps prefactors so the fast-network
and fast-state regimes are reachable without reparameterizing time.  With
a vector of anchor masses in place of the equal masses 1/N the same flow is
the characteristics flow of ``characteristics.py``.

Every integrator runs one private flow over stacked legs, one row of states
and weights per eps_w, so the epsilon sweep runs all its legs at once.  Kernels
see broadcastable grid views with a leading legs axis; results are broadcast.

Weight symmetry: when the model's V is exchange-symmetric and the initial
weight matrix is symmetric, the weight derivative matrix is built from its
upper triangle and mirrored, which keeps trajectories bitwise symmetric.

Compiled bookkeeping: with the kernels of ``_native`` each flow evaluation
makes one C call for its finiteness checks, U's zero diagonal and the
weight drift, and an rk4 step sums its stages in C on a workspace of the run
(k1 to k4, a stage buffer and two states used in turn, with their views and
addresses built once); each Illinois iteration of the nullcline solve is one
C call over every element.  U, V, U0, the row sum (``np.add.reduce``, for
numpy's pairwise summation order) and the mass-weighted ``einsum`` stay in
numpy, so results are bitwise those of the numpy references
``_micro_flow_py`` and ``_nullcline_array_py``, which run when there is no
library.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _native
from .errors import IntegrationError, InvariantViolation, ModelError, NullclineNotFound
from .models import PotentialModel, SmoothModel, _probe_points
from .stepping import rk4_step, rkf45_advance, run_grid

NULLCLINE_TOL = 1e-12
_NULLCLINE_MAX_STEPS = 100
_NULLCLINE_MAX_BRACKET = 4.0 ** 10   # the last bracket half-width tried, 1048576


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


def _on_grid(a, grid: tuple, name: str, state: np.ndarray) -> np.ndarray:
    """A C-contiguous writable float array of shape grid, sharing no memory
    with the caller's state, from a kernel result that broadcasts to grid."""
    a = np.asarray(a, dtype=float)
    if (a.shape == grid and a.flags.writeable and a.flags.c_contiguous
            and (a.base is None or not np.may_share_memory(a, state))):
        return a
    try:
        return np.broadcast_to(a, grid).copy()
    except ValueError:
        raise ModelError(f"{name} returned shape {a.shape}, which does not broadcast to "
                         f"the pair grid {grid}") from None


def _failed(what: str, t: float, eps_w: np.ndarray, ok: np.ndarray) -> IntegrationError:
    """The error of a failed step; with several legs it names the eps of those not ok."""
    legs = "" if eps_w.size == 1 else " for eps=" + ", ".join(f"{e:g}" for e in eps_w[~ok])
    return IntegrationError(f"{what} t={t:.6g}{legs}")


def _particle_drift(model: SmoothModel, N: int, m: int, eps_w: np.ndarray, eps_s: float = 1.0,
                    masses: np.ndarray | None = None, pairs=None):
    """drift(states, views, W, t, V=None, out=None, dw=0): ds/dt of stacked legs (see micro_rhs).

    states (L, N, m), their pair views (s_i, s_j) and weights (L, N, N)
    give the (L, N, m) drift, written into out if given; this is the one
    place a particle flow evaluates U.  A leg with a non-finite U, or a
    non-finite entry of the caller's weight drift V, raises IntegrationError
    naming t (see _failed).  pairs, a compiled pair step of _bind_pairs,
    also writes V's weight drift to the address dw; without it the numpy
    reference zeroes U's diagonal and the caller builds the weight drift.
    """
    if m != model.m:
        raise ModelError(f"configuration dimension m={m} does not match model m={model.m}")

    def drift(states: np.ndarray, views: tuple, W: np.ndarray, t: float, V=None,
              out=None, dw: int = 0) -> np.ndarray:
        U = _on_grid(model.U(*views, W), W.shape + (m,), "U", W)
        if pairs is not None:
            ok = pairs(U, V, dw)
            if ok is not None:
                raise _failed("non-finite force evaluation at", t, eps_w, ok)
        elif not (np.isfinite(U).all() and (V is None or np.isfinite(V).all())):
            ok = np.isfinite(U).all(axis=(1, 2, 3))
            if V is not None:
                ok &= np.isfinite(V).all(axis=(1, 2))
            raise _failed("non-finite force evaluation at", t, eps_w, ok)
        else:
            U.reshape(len(U), N * N, m)[:, ::N + 1] = 0.0   # the diagonal
        if masses is None:
            ds = np.divide(np.add.reduce(U, axis=2), N * eps_s, out=out)
        else:
            ds = np.divide(np.einsum("j,lijk->lik", masses, U), eps_s, out=out)
        if model.U0 is not None:
            ds += model.U0(states)
        return ds

    return drift


def _flow_legs(cfg: AgentConfiguration, model: SmoothModel, eps_w, eps_s: float):
    """eps_w as an array, L, N, m and whether the flow keeps weight symmetry."""
    eps_w = np.asarray(eps_w, dtype=float)
    if not (np.all(eps_w > 0) and eps_s > 0):
        raise ModelError("eps_w and eps_s must be positive")
    return eps_w, eps_w.size, cfg.N, cfg.m, cfg.symmetric and model.symmetric_V


def _micro_flow_py(cfg: AgentConfiguration, model: SmoothModel, eps_w, eps_s: float = 1.0,
                   masses: np.ndarray | None = None):
    """The drift f(z, t) of stacked legs started from cfg, and the one step function.

    Row l of z holds leg l's states then its weights and runs with eps_w[l].
    step(y, t, dt, method, rng) takes one rk4, euler or rkf45 step (euler
    with an rng adds simulate_diffusive's state noise) and checks each leg
    for non-finite entries and a symmetric flow for weight symmetry.  This
    is the numpy reference of the compiled flow of _bind_flow.
    """
    eps_w, L, N, m, sym = _flow_legs(cfg, model, eps_w, eps_s)
    drift = _particle_drift(model, N, m, eps_w, eps_s, masses)
    n = N * m
    lower = np.tril(np.ones((N, N), dtype=bool))   # the diagonal and below
    eps_col = None if np.all(eps_w == 1.0) else eps_w.reshape(L, 1, 1)   # x / 1.0 is x

    def f(z: np.ndarray, t: float) -> np.ndarray:
        states, W = z[:, :n].reshape(L, N, m), z[:, n:].reshape(L, N, N)
        views = states[:, :, None, :], states[:, None, :, :]
        V = _on_grid(model.V(*views, W), (L, N, N), "V", z)
        out = np.empty(z.shape)
        drift(states, views, W, t, V, out=out[:, :n].reshape(L, N, m))
        dw = out[:, n:].reshape(L, N, N)
        if sym:   # the strict upper triangle, mirrored straight into out
            np.copyto(V, 0.0, where=lower)
            V = np.add(V, V.swapaxes(1, 2), out=dw)
        else:
            V.reshape(L, N * N)[:, ::N + 1] = 0.0   # the diagonal
        if eps_col is not None:
            np.divide(V, eps_col, out=dw)
        elif V is not dw:
            dw[...] = V
        return out

    return f, _flow_step(f, lambda y, t, h: rk4_step(lambda z: f(z, t), y, h), model, eps_w, N,
                         m, sym)


def _flow_step(f, rk4, model: SmoothModel, eps_w: np.ndarray, N: int, m: int, sym: bool):
    """The step function of a flow f(z, t) whose rk4 step is rk4(y, t, h)."""
    L, n = eps_w.size, N * m

    def step(y: np.ndarray, t: float, dt: float, method: str, rng=None) -> np.ndarray:
        if method == "rk4":
            y_new = rk4(y, t, dt)
        elif method == "rkf45":
            y_new = rkf45_advance(lambda z: f(z, t), y, dt, t0=t)
        else:
            y_new = y + dt * f(y, t)
            if rng is not None:
                q = np.asarray(model.Q(y[:, :n].reshape(L, N, m)), dtype=float)
                noise = np.sqrt(2.0 * q * dt)[..., None] * rng.standard_normal((L, N, m))
                y_new[:, :n] += noise.reshape(L, n)
        if not np.isfinite(y_new).all():
            raise _failed("non-finite state in the step from", t, eps_w, np.isfinite(y_new).all(1))
        W = y_new[:, n:].reshape(L, N, N)
        if sym and not (W == W.swapaxes(1, 2)).all():
            raise InvariantViolation("weight symmetry lost during integration")
        return y_new

    return step


def _bind_pairs(lib):
    """The compiled pair step of the kernels lib, or None when there is no library.

    pair_step(L, N, m, eps_w=None, sym=False, dw_row=0) gives pairs(U, V,
    dw) for _particle_drift: one coevnet_flow_pairs call that returns the
    per-leg finiteness flags of U and V when an entry is not finite, else
    None after zeroing U's diagonal and, given V, writing the weight drift
    of _micro_flow_py to the address dw, leg l dw_row doubles further on.
    """
    if lib is None:
        return None
    fn = lib.coevnet_flow_pairs
    fn.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 4 + [ctypes.c_int]
    fn.restype = ctypes.c_int

    def pair_step(L: int, N: int, m: int, eps_w=None, sym: bool = False, dw_row: int = 0):
        ok = np.empty(L, dtype=bool)
        eps = None if eps_w is None or np.all(eps_w == 1.0) else np.array(eps_w)   # x / 1.0 is x
        const = (None if eps is None else eps.ctypes.data, ok.ctypes.data, L, N, m, dw_row, sym)

        def pairs(U: np.ndarray, V, dw: int):
            bad = fn(U.ctypes.data, None if V is None else V.ctypes.data, dw or None, *const)
            return ok if bad else None

        pairs.buffers = ok, eps   # keeps alive what C reads and writes through const
        return pairs

    return pair_step


def _bind_flow(lib):
    """The micro flow factory: _micro_flow_py when there is no library, else
    its compiled counterpart on the kernels lib, bitwise equal to it.

    The compiled f(z, t, out=None) writes into out; it does the pair
    bookkeeping in one coevnet_flow_pairs call, while U, V and the row sum
    stay in numpy.  Its rk4 step runs on a workspace made by the first step
    (k1 to k4, one stage buffer and two states used in turn, so a step's
    result is overwritten two steps later), the views and addresses of each
    buffer built once, and sums the stages with coevnet_rk4_combine.
    """
    pair_step = _bind_pairs(lib)
    if pair_step is None:
        return _micro_flow_py
    combine = lib.coevnet_rk4_combine
    combine.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_double, ctypes.c_int64]
    combine.restype = None

    def flow(cfg: AgentConfiguration, model: SmoothModel, eps_w, eps_s: float = 1.0,
             masses: np.ndarray | None = None):
        eps_w, L, N, m, sym = _flow_legs(cfg, model, eps_w, eps_s)
        n, row = N * m, N * m + N * N
        drift = _particle_drift(model, N, m, eps_w, eps_s, masses,
                                pair_step(L, N, m, eps_w, sym, row))
        # views and addresses of the workspace buffers, by id
        reads, writes, at = {}, {}, {}

        def split(z: np.ndarray) -> tuple:
            """z's states, weights and pair views."""
            states = z[:, :n].reshape(L, N, m)
            return states, z[:, n:].reshape(L, N, N), (states[:, :, None, :], states[:, None, :, :])

        def targets(out: np.ndarray) -> tuple:
            """out's state part and the address of its weight part."""
            return out[:, :n].reshape(L, N, m), out.ctypes.data + 8 * n

        def f(z: np.ndarray, t: float, out=None) -> np.ndarray:
            states, W, views = reads.get(id(z)) or split(z)
            V = _on_grid(model.V(*views, W), (L, N, N), "V", z)
            out = np.empty(z.shape) if out is None else out
            drift(states, views, W, t, V, *(writes.get(id(out)) or targets(out)))
            return out

        ws = []   # k1 to k4, the stage and two states, made by the first rk4 step

        def rk4(y: np.ndarray, t: float, h: float) -> np.ndarray:
            if not ws:
                ws.extend(np.empty(y.shape) for _ in range(7))
                for buf in ws:
                    reads[id(buf)], writes[id(buf)], at[id(buf)] = \
                        split(buf), targets(buf), buf.ctypes.data
            k1, k2, k3, k4, stage, a, b = ws
            y_new = b if y is a else a
            if id(y) not in at:   # the first step's state, which C reads too
                y = np.ascontiguousarray(y, dtype=np.float64)
            py, ps = at.get(id(y)) or y.ctypes.data, at[id(stage)]
            for k, c in ((k1, 0.5 * h), (k2, 0.5 * h), (k3, h)):
                f(y if k is k1 else stage, t, k)
                combine(py, at[id(k)], None, None, None, ps, c, y.size)
            f(stage, t, k4)
            combine(py, at[id(k1)], at[id(k2)], at[id(k3)], at[id(k4)], at[id(y_new)], h / 6.0,
                    y.size)
            return y_new

        return f, _flow_step(f, rk4, model, eps_w, N, m, sym)

    return flow


_flow_pairs = _bind_pairs(_native.LIB)
_micro_flow = _bind_flow(_native.LIB)


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
    f, _ = _micro_flow(cfg, model, [eps_w], eps_s, masses)
    ds, dw = np.split(f(_stack(cfg, 1), cfg.t)[0], [cfg.states.size])
    return ds.reshape(cfg.states.shape), dw.reshape(cfg.N, cfg.N)


def _stack(cfg: AgentConfiguration, legs: int) -> np.ndarray:
    """One row per leg, each the states then the weights of cfg."""
    return np.tile(np.concatenate([cfg.states.ravel(), cfg.weights.ravel()]), (legs, 1))


def _leg_config(cfg: AgentConfiguration, y: np.ndarray, t: float) -> AgentConfiguration:
    """A copy of the first leg of the stacked state y, as the configuration at time t."""
    s, w = np.split(y[0].copy(), [cfg.states.size])
    return cfg.replace(s.reshape(cfg.states.shape), w.reshape(cfg.N, cfg.N), t)


def _run_legs(cfg: AgentConfiguration, model: SmoothModel, dt: float, T: float, eps_w,
              stride: int = sys.maxsize, sample=lambda y, t: None, eps_s: float = 1.0,
              method: str = "rk4", masses: np.ndarray | None = None, rng=None) -> np.ndarray:
    """Run one leg from cfg per eps_w as one stacked integration through run_grid.

    sample(y, t) sees the stacked state (with the default stride, at the
    start and the end only).  Returns the final states, (len(eps_w), N, m).
    """
    _, step = _micro_flow(cfg, model, eps_w, eps_s, masses)
    y = run_grid(lambda y, t: step(y, t, dt, method, rng), _stack(cfg, len(eps_w)), cfg.t, dt,
                 T, stride, sample, step_checks_finite=True)
    return y[:, :cfg.states.size].reshape(len(eps_w), cfg.N, cfg.m)


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
    traj = MicroTrajectory()

    def sample(y: np.ndarray, t: float) -> None:
        c = _leg_config(cfg, y, t)
        if not store:
            traj.times, traj.configs = [], []
        traj.times.append(t)
        traj.configs.append(c)
        if callback is not None:
            callback(c)

    _run_legs(cfg, model, dt, T, [eps_w], sample_stride, sample, eps_s, method, masses)
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
    traj = MicroTrajectory()

    def sample(y: np.ndarray, t: float) -> None:
        traj.times.append(t)
        traj.configs.append(_leg_config(cfg, y, t))

    _run_legs(cfg, model, dt, T, [1.0], sample_stride, sample, method="euler",
              rng=np.random.default_rng(seed))
    return traj


def _pair_potential(states: np.ndarray, weights: np.ndarray, pot: PotentialModel, what: str):
    """F, grad_s F and d_w F of pot on every pair (s_i, s_j, w_ij), each a fresh
    array with a zero diagonal; a non-finite entry raises IntegrationError
    naming what."""
    N, m = states.shape
    views = states[:, None, :], states[None, :, :]
    terms = (_on_grid(pot.F(*views, weights), (N, N), "F", weights),
             _on_grid(pot.eval_grad_s(*views, weights), (N, N, m), "grad_s", weights),
             _on_grid(pot.eval_d_w(*views, weights), (N, N), "d_w", weights))
    for a in terms:
        a.reshape(N * N, -1)[::N + 1] = 0.0   # the diagonal
    if not all(np.isfinite(a).all() for a in terms):
        raise IntegrationError(f"non-finite potential evaluation in {what}")
    return terms


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
    A non-finite off-diagonal F, grad_s F or d_w F (or an overflowing sum)
    raises IntegrationError.
    """
    if cfg.m != pot.m:
        raise ModelError("configuration and potential dimensions differ")
    F, gs, dw = _pair_potential(cfg.states, cfg.weights, pot, "energy report")
    N = cfg.N
    energy = float(F.sum()) / (2.0 * N)
    mean_grad = gs.sum(axis=1) / N                      # (N, m)
    state_term = float(np.sum(mean_grad * mean_grad))
    weight_sq = float(np.sum(dw * dw))
    dissipation = state_term + pot.c * weight_sq / (2.0 * N)
    pairwise = float(np.sum(gs * gs)) + pot.c * weight_sq
    if not np.isfinite((energy, dissipation, pairwise)).all():
        raise IntegrationError("non-finite sum in energy report")
    return EnergyReport(energy=energy, dissipation=dissipation, t=cfg.t,
                        dissipation_pairwise=pairwise)


def _nullcline_array_py(model: SmoothModel, si: np.ndarray, sj: np.ndarray) -> np.ndarray:
    """Roots of w -> V(s, sigma, w) for broadcast state grids, elementwise.

    Each element is bracketed in [-b, b], b = 1, 4, 16, ... up to
    _NULLCLINE_MAX_BRACKET = 4**10 = 1048576; no sign change within it raises
    NullclineNotFound naming that bound.  A root on a bracket endpoint is
    returned as is.  Otherwise the Illinois variant of
    regula falsi (Dowell & Jarratt 1971) shrinks the bracket, with a
    bisection step wherever an endpoint value is not finite or the secant
    point leaves the bracket.  An element stops at an exact zero of V or
    when its iterate moves by at most 2 ulps; an affine V (every catalog
    model) stops after two to four steps.  The last residual must be at
    most NULLCLINE_TOL (a NaN residual fails too).  This is the numpy
    reference of the compiled solve of _bind_nullcline.
    """
    V_at, lo, hi, flo, fhi = _nullcline_bracket(model, si, sj)
    shape = lo.shape
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
    return _nullcline_checked(w, fw)


def _nullcline_bracket(model: SmoothModel, si: np.ndarray, sj: np.ndarray):
    """V_at(w), the values of V on si, sj, and the bracket lo, hi with the
    values flo, fhi of V there, found as _nullcline_array_py states."""
    shape = np.broadcast_shapes(si.shape[:-1], sj.shape[:-1])

    def V_at(w):
        return np.asarray(model.V(si, sj, w), dtype=float)

    bound = 1.0
    lo = np.full(shape, -1.0)
    hi = np.full(shape, 1.0)
    flo = V_at(lo)
    fhi = V_at(hi)
    unbracketed = np.sign(flo) == np.sign(fhi)
    while np.any(unbracketed) and bound < _NULLCLINE_MAX_BRACKET:
        bound *= 4.0
        lo = np.where(unbracketed, -bound, lo)
        hi = np.where(unbracketed, bound, hi)
        flo = np.where(unbracketed, V_at(lo), flo)
        fhi = np.where(unbracketed, V_at(hi), fhi)
        unbracketed = np.sign(flo) == np.sign(fhi)
    if np.any(unbracketed & (flo != 0.0) & (fhi != 0.0)):
        raise NullclineNotFound(f"V has no sign change in |w| <= {bound:g} for some state pair")
    return V_at, lo, hi, flo, fhi


def _nullcline_checked(w: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """w, unless a residual |fw| is above NULLCLINE_TOL (or NaN)."""
    resid = np.abs(fw)
    if not np.all(resid <= NULLCLINE_TOL):
        raise NullclineNotFound(
            f"nullcline residual {float(resid.max()):.3e} above {NULLCLINE_TOL:g}")
    return w


def _bind_nullcline(lib):
    """The nullcline solve: _nullcline_array_py when there is no library,
    else its compiled counterpart on the kernels lib, bitwise equal to it.

    The bracket search, the step limit and the residual check stay in numpy,
    as does every call of V; each Illinois iteration is one
    coevnet_illinois call over every element of one (10, n) buffer.
    """
    if lib is None:
        return _nullcline_array_py
    fn = lib.coevnet_illinois
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int]
    fn.restype = ctypes.c_int64

    def nullcline(model: SmoothModel, si: np.ndarray, sj: np.ndarray) -> np.ndarray:
        V_at, *bracket = _nullcline_bracket(model, si, sj)
        # rows lo, hi, flo, fhi, w, fw, side, done, new, fnew, as coevnet_illinois reads them
        buf = np.empty((10,) + bracket[0].shape)
        buf[0], buf[1], buf[2], buf[3] = bracket
        new, fnew, at, size = buf[8], buf[9], buf.ctypes.data, buf[0].size
        steps = 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            active = fn(at, size, 1)
            while active:
                if steps == _NULLCLINE_MAX_STEPS:
                    raise NullclineNotFound(
                        f"nullcline iteration did not converge in {steps} steps")
                steps += 1
                np.copyto(fnew, V_at(new))
                active = fn(at, size, 0)
        return _nullcline_checked(buf[4], buf[5])

    return nullcline


_nullcline_array = _bind_nullcline(_native.LIB)


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
    states follow the micro state drift with those weights, external force
    included: ds_i/dt = (1/N) sum_{j != i} U(s_i, s_j, omega(s_i, s_j)) + U0(s_i).
    A non-finite force raises IntegrationError naming the time of the step,
    and T off the dt grid raises ModelError (``stepping.grid_steps``), so the
    run ends at T, where run_epsilon_sweep compares it with the micro legs.
    """
    states = np.array(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    N, m = states.shape
    drift = _particle_drift(model, N, m, np.ones(1),
                            pairs=None if _flow_pairs is None else _flow_pairs(1, N, m))

    def on_nullcline(y: np.ndarray, t: float) -> np.ndarray:
        s = y.reshape(1, N, m)
        views = s[:, :, None, :], s[:, None, :, :]
        return drift(s, views, _nullcline_array(model, *views), t).reshape(y.shape)

    traj = StateTrajectory()

    def sample(y: np.ndarray, t: float) -> None:
        traj.times.append(t)
        traj.states.append(y.reshape(N, m).copy())

    run_grid(lambda y, t: rk4_step(lambda z: on_nullcline(z, t), y, dt), states.ravel(), 0.0,
             dt, T, 1, sample)
    return traj
