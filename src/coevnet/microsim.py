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

One backend switch: ``_particle_drift`` and ``_nullcline_array`` read
``_native.LIB`` when called, the workspace when made; each has one driver.
Each flow evaluation is one call of a flow made once per run: the compiled
``MicroFlow`` while ``LIB`` holds the extension module, else its numpy twin
``_MicroFlow``, which has the same constructor and call and writes the same
bytes.  The kernel checks U and V finite and sums U over the partners (with
equal masses in the pairwise order of ``np.add.reduce(U, axis=2)``, which
the twin calls) in one pass per pair row, then writes the weight drift and
the sums divided into the state drift.  It calls back the model's V, U and
U0 (for a model with its pair form, see ``models``, eta and K, from which
it forms V and U itself: each kernel gets d = s_i - s_j in scratch of its
own that the flow holds, both written before eta is called, so a kernel
may write into its argument but must not keep it, nor write into the other
kernel's result, which the kernel reads after both calls), ``_on_grid``
for a result that is not a float64 array of its grid, the mass-weighted
``einsum`` on U formed with its zero diagonal in a grid of the flow's own,
and numpy's own ``+=`` for adding U0, whose result may broadcast.  Every
result of V, U, eta and K is read in place through its strides and never
written: ``_on_grid`` makes numpy's read-only broadcast view of a result
off its grid, and the pair mode has no other route.  Each nullcline solve
is one ``nullcline`` call, or one call of its twin ``_nullcline_py``: the
bracket search, every Illinois iteration, the step limit and the residual
check over one buffer, with V (for the pair form, eta taken once per
solve minus kappa w) called back on views of its rows and its results
read as the flow reads them.  The rk4 and rkf45 steps of the flow and of
the fast-network limit run on a workspace of the run (``_Workspace``):
each rk4 step and Fehlberg substep is one call of the step entry
``rk_step``, which forms the stages and the update with ``rk_sum``'s sum,
evaluates the flow at each stage (a compiled ``MicroFlow`` in the entry
itself) and makes the step checks.  Its reference is ``stepping.rk4_step``
and ``rkf45_step`` over the flow, with the checks of ``_step_flags``.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _native
from .errors import IntegrationError, InvariantViolation, ModelError, NullclineNotFound
from .models import PairForm, PotentialModel, SmoothModel, _probe_points, _times
from .stepping import rk4_step, rkf45_advance, rkf45_step, run_grid

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


def _on_grid(a, grid: tuple, name: str) -> np.ndarray:
    """A kernel result as a float array of shape grid: numpy's read-only
    broadcast view of it, which the flows read and never write."""
    a = np.asarray(a, dtype=float)
    try:
        return np.broadcast_to(a, grid)
    except ValueError:
        raise ModelError(f"{name} returned shape {a.shape}, which does not broadcast to "
                         f"the pair grid {grid}") from None


def _failed(what: str, t: float, eps_w: np.ndarray, ok) -> IntegrationError:
    """The error of a failed step; with several legs it names the eps of
    those not ok (per-leg flags)."""
    ok = np.asarray(ok, dtype=bool)
    legs = "" if eps_w.size == 1 else " for eps=" + ", ".join(f"{e:g}" for e in eps_w[~ok])
    return IntegrationError(f"{what} t={t:.6g}{legs}")


def _step_flags(y: np.ndarray, L: int, n: int, N: int, sym: bool) -> tuple | None:
    """The twin of the compiled step checks of y, L legs of n states and N x N
    weights: None, or the per-leg finiteness flags (all True when a finite
    leg's weights, with sym, are not symmetric)."""
    rows = y.reshape(L, -1)
    ok = np.isfinite(rows).all(1)
    if not ok.all():
        return tuple(ok.tolist())
    if sym:
        W = rows[:, n:n + N * N].reshape(L, N, N)
        if not (W == W.swapaxes(1, 2)).all():
            return (True,) * L
    return None


def _checked(y: np.ndarray, t: float, eps_w: np.ndarray, flags) -> np.ndarray:
    """y, the result of a step from t, unless its checks (see _step_flags)
    flag a failure: then the error of the failed legs, or of lost symmetry."""
    if flags is None:
        return y
    if all(flags):
        raise InvariantViolation("weight symmetry lost during integration")
    raise _failed("non-finite state in the step from", t, eps_w, flags)


@functools.lru_cache(maxsize=8)
def _lower(N: int) -> np.ndarray:
    """The diagonal and below of an N x N matrix, a read-only mask built once per N."""
    lower = np.tril(np.ones((N, N), dtype=bool))
    lower.flags.writeable = False
    return lower


@functools.lru_cache(maxsize=32)
def _spans(a: tuple, b: tuple, grid: tuple) -> bool:
    """Whether arrays of shapes a and b broadcast to exactly grid."""
    return len(a) == len(b) == len(grid) and all(
        x in (1, g) and y in (1, g) and max(x, y) == g for x, y, g in zip(a, b, grid))


class _MicroFlow:
    """The numpy twin of the compiled ``MicroFlow``, with its constructor and call.

    _MicroFlow(V, U, row_sum, divisor, U0, eps, L, N, m, sym, row, on_grid,
    pair=None) is the flow of L stacked legs of N agents in m dimensions; V
    is None for a flow without weights, U0 may be None and eps (one weight
    divisor per leg) too.  pair, the (K, eta, kappa) of a model whose U and
    V are its pair form's (see ``models``), selects the pair mode.  A call
    flow(states, si, sj, W, ds, out) is one evaluation, in this order:

    1. V(si, sj, W) (given V) and then U(si, sj, W), each result read
       through ``on_grid(result, grid, name)`` on its pair grid, (L, N, N)
       or (L, N, N, m): a read-only view with any strides, never written.
       In the pair mode, where si and sj must be float64 arrays that
       broadcast to the pair grid and W a float64 array of (L, N, N) (else
       ValueError), instead given V, eta(d) through ``on_grid`` and V =
       eta(d) - kappa W (- W with kappa 1) into the flow's scratch V; then
       K(d) through ``on_grid`` and U = -(W K(d)) into its scratch U.  Each
       kernel gets d = si - sj in scratch of its own, as the compiled flow,
       which writes both before it calls eta and reads both results after
       both calls, gives it: a kernel may write into its argument or return
       it, or a view of it, but must not keep it, nor write into the other
       kernel's result;
    2. when a leg of U or V is not finite, returns the per-leg finiteness
       flags and writes nothing;
    3. given V, writes the weight drift into out (L rows of row doubles, leg
       l's drift after its first N m): with sym, V's strict upper triangle
       mirrored, which turns -0.0 into +0.0, else V with a zero diagonal;
       divided by eps[l] unless eps is None;
    4. ds, the (L, N, m) states of the output, = row_sum(U) / divisor, or
       np.add.reduce(U, axis=2) / divisor (in the kernel, its order) with
       row_sum None, U with a zero diagonal in a C-order array of the
       flow's own, since numpy's pairwise order follows the layout;
    5. ds += U0(states); returns None.
    """

    def __init__(self, V, U, row_sum, divisor, U0, eps, L, N, m, sym, row, on_grid, pair=None):
        self.V, self.U, self.row_sum, self.divisor, self.U0 = V, U, row_sum, divisor, U0
        self.eps = None if eps is None else np.array(eps, dtype=float).reshape(L, 1, 1)
        self.L, self.N, self.m, self.sym, self.row, self.on_grid = L, N, m, sym, row, on_grid
        self.pair = pair
        if pair is not None:   # the scratch: eta's d, K's d, V and U
            pairs = (L, N, N, m)
            self.scratch = np.empty(pairs), np.empty(pairs), np.empty((L, N, N)), np.empty(pairs)

    def _pair(self, si, sj, W) -> tuple:
        """Step 1 in the pair mode: U and V (None without V) by the pair form."""
        K, eta, kappa = self.pair
        grid = (self.L, self.N, self.N)
        pairs = grid + (self.m,)
        if not (isinstance(si, np.ndarray) and isinstance(sj, np.ndarray)
                and isinstance(W, np.ndarray) and si.dtype == sj.dtype == W.dtype == np.float64
                and W.shape == grid and _spans(si.shape, sj.shape, pairs)):
            raise ValueError(f"the pair mode takes si and sj as float64 arrays that span the "
                             f"pair grid {pairs} and W as a float64 array of {grid}")
        d_eta, d_K, V, U = self.scratch
        if self.V is None:
            V = None
        else:   # each kernel its own d
            e = self.on_grid(eta(np.subtract(si, sj, out=d_eta)), grid, "eta")
            V = np.subtract(e, W if kappa == 1.0 else kappa * W, out=V)
        k = self.on_grid(K(np.subtract(si, sj, out=d_K)), pairs, "K")
        U = np.multiply(W[..., None], k, out=U)
        return np.negative(U, out=U), V

    def __call__(self, states, si, sj, W, ds, out) -> tuple | None:
        L, N, m, on_grid = self.L, self.N, self.m, self.on_grid
        if self.pair is not None:
            U, V = self._pair(si, sj, W)
        else:
            V = None if self.V is None else on_grid(self.V(si, sj, W), (L, N, N), "V")
            U = np.array(on_grid(self.U(si, sj, W), (L, N, N, m), "U"), order="C")   # of its own
        if not (np.isfinite(U).all() and (V is None or np.isfinite(V).all())):
            ok = np.isfinite(U).all(axis=(1, 2, 3))
            if V is not None:
                ok &= np.isfinite(V).all(axis=(1, 2))
            return tuple(ok.tolist())
        U.reshape(L, N * N, m)[:, ::N + 1] = 0.0   # the diagonal
        if V is not None:
            dw = out.reshape(L, self.row)[:, N * m:N * m + N * N].reshape(L, N, N)
            if self.sym:   # the strict upper triangle, mirrored straight into out
                V = np.where(_lower(N), 0.0, V)
                np.add(V, V.swapaxes(1, 2), out=dw)
            else:
                dw[...] = V
                dw.reshape(L, N * N)[:, ::N + 1] = 0.0   # the diagonal
            if self.eps is not None:
                np.divide(dw, self.eps, out=dw)
        row_sum = np.add.reduce(U, axis=2) if self.row_sum is None else self.row_sum(U)
        np.divide(row_sum, self.divisor, out=ds)
        if self.U0 is not None:
            ds += self.U0(states)
        return None


def _pair_form(model) -> PairForm | None:
    """The model's pair form (see ``models``) while its U and V are the
    form's own, else None: a copy with U or V replaced runs on them."""
    form = getattr(model, "_pair_form", None)
    return form if form is not None and model.U is form.U and model.V is form.V else None


def _particle_drift(model: SmoothModel, N: int, m: int, eps_w: np.ndarray, eps_s: float = 1.0,
                    masses: np.ndarray | None = None, sym: bool = False, row: int = 0,
                    V: Callable | None = None):
    """The flow (``_MicroFlow`` or the compiled ``MicroFlow``, by
    ``_native.LIB`` when called) of stacked legs, one per eps_w, of the
    model with weight drift V (None: the weights are given, not evolved):
    flow(states, si, sj, W, ds, out) writes ds/dt (see micro_rhs) into ds
    and, given V, the weight drift into out, whose leg l starts row doubles
    after leg l - 1.  It returns None, or the per-leg finiteness flags of U
    and V when a leg is not finite (see _failed); this is the one place a
    particle flow evaluates U.  The interaction sum is ``np.add.reduce``
    over the partner axis (which the compiled flow computes itself in
    numpy's pairwise order), divided by N eps_s, or with masses their
    ``einsum``, divided by eps_s; masses must be N finite numbers.
    """
    if m != model.m:
        raise ModelError(f"configuration dimension m={m} does not match model m={model.m}")
    if masses is None:
        row_sum, divisor = None, N * eps_s   # np.add.reduce(U, axis=2), in the flow
    else:
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (N,):
            raise ModelError(f"masses must have shape ({N},), one per agent, got {masses.shape}")
        if not np.isfinite(masses).all():
            raise ModelError("masses must be finite")
        row_sum, divisor = functools.partial(np.einsum, "j,lijk->lik", masses), eps_s
    eps = None if np.all(eps_w == 1.0) else np.array(eps_w)   # x / 1.0 is x
    form = _pair_form(model)
    pair = None if form is None or V not in (None, form.V) else (form.K, form.eta, form.kappa)
    make = _MicroFlow if _native.LIB is None else _native.LIB.MicroFlow
    return make(V, model.U, row_sum, divisor, model.U0, eps, eps_w.size, N, m, sym, row, _on_grid,
                pair)


class _Workspace:
    """The rk4 and rkf45 steps of a flow f(states, si, sj, W, ds, out) -> None
    or per-leg flags, over the legs of eps_w (n states and, with sym, N x N
    weights each), on the records (z, *parts(z)) of buffers made by the first
    step: six stage derivatives, a stage buffer and two states.  Each rk4
    step and Fehlberg substep is one call of the step entry ``rk_step`` of
    ``_native.LIB`` when the workspace is made, else ``stepping.rk4_step``
    or ``rkf45_step`` over f, which write the same bytes.  A flagged f raises
    ``_failed``'s error naming t; rk4 raises the error (``_checked``) of its
    final sum's checks; rkf45 advances by ``rkf45_advance``.

    A step writes one state buffer: from the first, the second; from the
    second, or from a state that the workspace does not hold, the first,
    which may hold the result that the previous step returned.  An rkf45
    step writes one per accepted substep, so with two or more it writes
    both.  A result thus holds only until the next step; ``run_grid`` steps
    from each result and its samples copy what they keep.
    """

    def __init__(self, f, eps_w: np.ndarray, n: int, N: int = 0, sym: bool = False, parts=None):
        self.lib, self.f, self.eps_w, self.parts = _native.LIB, f, eps_w, parts
        self.legs = (eps_w.size, n, N, sym)
        self.ks, self.stage, self.states = (), None, ()

    def _start(self, y: np.ndarray) -> tuple:
        """y's record, and the state buffer that a step from y writes to."""
        if not self.states:
            recs = [(b, *self.parts(b)) for b in (np.empty(y.shape) for _ in range(9))]
            self.ks, self.stage, self.states = tuple(recs[:6]), recs[6], recs[7:]
        a, b = self.states
        if y is a[0]:
            return a, b[0]
        if y is not b[0]:
            y = np.ascontiguousarray(y, dtype=np.float64)
            b = (y, *self.parts(y))
        return b, a[0]

    def _step(self, y: tuple, out: np.ndarray, t: float, h: float, fehlberg: bool):
        """One step from the record y into out; returns what ``rk_step``
        returns: None, the error estimate, or (4, flags) of rk4's checks."""
        if self.lib is not None:
            got = self.lib.rk_step(self.f, y, self.stage, self.ks, out, h, fehlberg, *self.legs)
            if isinstance(got, tuple) and (fehlberg or got[0] < 4):   # (4, flags): rk4's checks
                raise _failed("non-finite force evaluation at", t, self.eps_w, got[1])
            return got
        ks = iter(self.ks)

        def rhs(z: np.ndarray) -> np.ndarray:
            k, ds = next(ks)[:2]
            if (flags := self.f(*self.parts(z), ds, k)) is not None:
                raise _failed("non-finite force evaluation at", t, self.eps_w, flags)
            return k

        if fehlberg:
            out[...], err = rkf45_step(rhs, y[0], h)
            return err
        out[...] = rk4_step(rhs, y[0], h)
        flags = _step_flags(out, *self.legs)
        return None if flags is None else (4, flags)

    def rk4(self, y: np.ndarray, t: float, h: float) -> np.ndarray:
        y, y_new = self._start(y)
        flags = self._step(y, y_new, t, h, False)
        return _checked(y_new, t, self.eps_w, None if flags is None else flags[1])

    def rkf45(self, y: np.ndarray, t: float, h: float) -> np.ndarray:
        def substep(f, y: np.ndarray, h: float):
            y, y5 = self._start(y)
            return y5, self._step(y, y5, t, h, True)

        return rkf45_advance(self.f, np.ascontiguousarray(y, dtype=np.float64), h, t0=t,
                             step=substep)


def _micro_flow(cfg: AgentConfiguration, model: SmoothModel, eps_w, eps_s: float = 1.0,
                masses: np.ndarray | None = None):
    """The drift f(z, t, out=None) of stacked legs started from cfg, and the one step function.

    Row l of z holds leg l's states then its weights and runs with eps_w[l];
    f writes into out if given.  step(y, t, dt, method, rng) takes one rk4,
    euler or rkf45 step (euler with an rng adds simulate_diffusive's state
    noise) and checks each leg for non-finite entries and a symmetric flow
    for weight symmetry (``_step_flags``, ``_checked``).  Each f is one call of the flow
    (see _particle_drift), and the rk4 and rkf45 steps run on a
    ``_Workspace`` of the flow, which takes each buffer's views once.
    """
    eps_w = np.asarray(eps_w, dtype=float)
    if not (np.all(eps_w > 0) and eps_s > 0):
        raise ModelError("eps_w and eps_s must be positive")
    L, N, m, sym = eps_w.size, cfg.N, cfg.m, cfg.symmetric and model.symmetric_V
    n = N * m
    flow = _particle_drift(model, N, m, eps_w, eps_s, masses, sym, n + N * N, model.V)

    def parts(z: np.ndarray) -> tuple:
        """z's states, pair views and weights, as the flow takes them."""
        states = z[:, :n].reshape(L, N, m)
        return states, states[:, :, None, :], states[:, None, :, :], z[:, n:].reshape(L, N, N)

    def f(z: np.ndarray, t: float, out=None) -> np.ndarray:
        out = np.empty(z.shape) if out is None else out
        ok = flow(*parts(z), out[:, :n].reshape(L, N, m), out)
        if ok is not None:
            raise _failed("non-finite force evaluation at", t, eps_w, ok)
        return out

    ws = _Workspace(flow, eps_w, n, N, sym, parts)

    def step(y: np.ndarray, t: float, dt: float, method: str, rng=None) -> np.ndarray:
        if method == "rk4":
            return ws.rk4(y, t, dt)
        if method == "rkf45":
            y_new = ws.rkf45(y, t, dt)
        else:
            y_new = y + dt * f(y, t)
            if rng is not None:
                q = np.asarray(model.Q(y[:, :n].reshape(L, N, m)), dtype=float)
                noise = np.sqrt(2.0 * q * dt)[..., None] * rng.standard_normal((L, N, m))
                y_new[:, :n] += noise.reshape(L, n)
        return _checked(y_new, t, eps_w, _step_flags(y_new, L, n, N, sym))

    return f, step


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
    substeps between grid points, tolerances ``stepping.RKF45_ATOL`` and
    ``RKF45_RTOL``).  Samples are taken at k = 0, every sample_stride-th
    step and the last step; each is stored (or, with store=False, kept only
    as the latest) and passed to callback.  masses, if given, replaces the
    equal masses 1/N of the interaction drift (see micro_rhs).  A non-finite
    force or state, or an RKF45 substep that misses its tolerance at the
    minimum step size, raises IntegrationError naming the time the failing
    step started from.
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
    results = (_on_grid(pot.F(*views, weights), (N, N), "F"),
               _on_grid(pot.eval_grad_s(*views, weights), (N, N, m), "grad_s"),
               _on_grid(pot.eval_d_w(*views, weights), (N, N), "d_w"))
    terms = tuple(np.array(a, order="C") for a in results)   # of their own
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


@functools.lru_cache(maxsize=32)
def _pair_grid(si_shape: tuple, sj_shape: tuple) -> tuple:
    """The shape of the grid of state pairs of state arrays of these shapes."""
    return np.broadcast_shapes(si_shape[:-1], sj_shape[:-1])


def _nullcline_py(V, si, sj, buf: np.ndarray, lo_row, hi_row, new_row, max_steps: int,
                  max_bracket: float, tol: float, on_grid) -> int:
    """The numpy twin of the compiled ``nullcline``, with its arguments: one
    solve of V(si, sj, w) = 0 over the grid of lo_row's shape, in the buffer
    buf of 10 such rows lo, hi, flo, fhi, w, fw, side, done, new, fnew (side
    and done hold -1/0/+1 and 0/1).  lo_row, hi_row and new_row are the views
    of rows 0, 1 and 8 that V is called on; each result goes through
    on_grid(result, grid, "V") into a row.  Returns the status: 0 with the
    roots in w, 1 when an element has no sign change in its bracket (the
    largest hi is then the last bracket half-width), 2 when max_steps
    iterations after the first leave an element not done, 3 when a
    residual |fw| is above tol or NaN.

    The bracket search starts at [-1, 1] and, while the values at an
    element's endpoints have one sign (side 1.0) and the half-width b is
    below max_bracket, grows b by 4, moves those elements to [-b, b] and
    takes V at all of lo, then of hi, keeping the values where side is 1.0.
    An element with a zero endpoint value is done at that endpoint.  Each
    Illinois iteration takes the update from fnew = V(new): done, w and fw
    of the elements not yet done, the Illinois halving and the bracket side,
    then proposes the next point new of every element, the secant point as a
    correction to the endpoint with the smaller |V|, or the midpoint where
    that leaves the bracket or the endpoint values differ by a non-finite
    amount.  V runs outside ``np.errstate``, so its warnings show as with
    the kernel; the twin's own arithmetic is silenced.
    """
    grid = lo_row.shape
    lo, hi, flo, fhi, w, fw, side, done, new, fnew = buf.reshape(10, -1)

    def V_into(row, out):
        out[:] = on_grid(V(si, sj, row), grid, "V").reshape(-1)

    lo[:], hi[:] = -1.0, 1.0
    V_into(lo_row, flo)
    V_into(hi_row, fhi)
    bound = 1.0
    while True:
        side[:] = np.sign(flo) == np.sign(fhi)
        unbracketed = side != 0.0
        if not (unbracketed.any() and bound < max_bracket):
            break
        bound *= 4.0
        lo[unbracketed], hi[unbracketed] = -bound, bound
        V_into(lo_row, fnew)
        flo[unbracketed] = fnew[unbracketed]
        V_into(hi_row, fnew)
        fhi[unbracketed] = fnew[unbracketed]
    if np.any(unbracketed & (flo != 0.0) & (fhi != 0.0)):
        return 1
    steps = 0
    while True:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if steps == 0:
                on_lo = flo == 0.0
                done[:] = on_lo | (fhi == 0.0)
                w[:] = np.where(on_lo, lo, np.where(done, hi, np.nan))   # NaN: no iterate yet
                fw[:] = np.where(on_lo, flo, fhi)
                side[:] = 0.0   # -1 (+1): the last step replaced lo (hi)
            else:
                active = done == 0.0
                stop = (fnew == 0.0) | (np.abs(new - w) <= 2.0 * np.spacing(np.abs(new)))
                done[:] = np.where(active, stop, done)
                w[:] = np.where(active, new, w)
                fw[:] = np.where(active, fnew, fw)
                to_lo = np.sign(fnew) == np.sign(flo)
                # Illinois: halve the kept endpoint's value when one side is replaced twice
                fhi[:] = np.where(to_lo & (side == -1), 0.5 * fhi, fhi)
                flo[:] = np.where(~to_lo & (side == 1), 0.5 * flo, flo)
                lo[:], flo[:] = np.where(to_lo, new, lo), np.where(to_lo, fnew, flo)
                hi[:], fhi[:] = np.where(to_lo, hi, new), np.where(to_lo, fhi, fnew)
                side[:] = np.where(to_lo, -1, 1)
            # the secant point, as a correction to the endpoint with the smaller |V|
            near_lo = np.abs(flo) < np.abs(fhi)
            a, fa = np.where(near_lo, lo, hi), np.where(near_lo, flo, fhi)
            b, fb = np.where(near_lo, hi, lo), np.where(near_lo, fhi, flo)
            x = a - fa * (b - a) / (fb - fa)
            secant = np.isfinite(fb - fa) & (x >= lo) & (x <= hi)
            new[:] = np.where(secant, x, 0.5 * (lo + hi))
        if not (done == 0.0).any():
            break
        if steps == max_steps:
            return 2
        steps += 1
        V_into(new_row, fnew)
    return 0 if np.all(np.abs(fw) <= tol) else 3


def _nullcline_array(model: SmoothModel, si: np.ndarray, sj: np.ndarray) -> np.ndarray:
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
    most NULLCLINE_TOL (a NaN residual fails too).

    The solve is one call over one (10,) + grid buffer, the compiled
    ``nullcline`` while ``_native.LIB`` holds it, else its twin
    ``_nullcline_py``: the bracket search, every Illinois iteration, the
    step limit and the residual check, with V called back.  For a model
    with its pair form (see ``models``), eta(s - sigma) is taken once here,
    and the V called back is the catalog's with that value, eta_d - kappa w,
    so the iterates are the same.  The limits are read here at each call;
    the returned status becomes the error.
    """
    buf = np.empty((10,) + _pair_grid(si.shape, sj.shape))
    V, form = model.V, _pair_form(model)
    if form is not None:   # eta once per solve: V is the catalog's with eta(s - sigma) taken
        eta_d = np.asarray(form.eta(np.asarray(si, dtype=float) - sj), dtype=float)

        def V(s, sig, w, _relax=_times(form.kappa)):
            return eta_d - _relax(np.asarray(w, dtype=float))
    solve = _nullcline_py if _native.LIB is None else _native.LIB.nullcline
    status = solve(V, si, sj, buf, buf[0, ...], buf[1, ...], buf[8, ...],
                   _NULLCLINE_MAX_STEPS, _NULLCLINE_MAX_BRACKET, NULLCLINE_TOL, _on_grid)
    if status == 1:
        raise NullclineNotFound(f"V has no sign change in |w| <= {float(buf[1].max()):g} "
                                "for some state pair")
    if status == 2:
        raise NullclineNotFound(
            f"nullcline iteration did not converge in {_NULLCLINE_MAX_STEPS} steps")
    if status == 3:
        raise NullclineNotFound(
            f"nullcline residual {float(np.abs(buf[5]).max()):.3e} above {NULLCLINE_TOL:g}")
    return buf[4]


def solve_weight_nullcline(model: SmoothModel, s, sigma) -> float:
    """Solve V(s, sigma, w) = 0 for w (see ``_nullcline_array``); s and
    sigma must each hold the model's m values, all finite."""
    si, sj = (np.asarray(x, dtype=float) for x in (s, sigma))
    if si.size != model.m or sj.size != model.m:
        raise ModelError(f"s and sigma must each hold the model's m={model.m} values, got "
                         f"{si.size} and {sj.size}")
    if not (np.isfinite(si).all() and np.isfinite(sj).all()):
        raise ModelError("non-finite entries in s or sigma")
    return float(_nullcline_array(model, si.reshape(1, model.m), sj.reshape(1, model.m))[0])


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
    A non-finite initial state raises ModelError, a non-finite force or
    state later IntegrationError naming the time of the step, and T off the
    dt grid raises ModelError (``stepping.grid_steps``), so the run ends at
    T, where run_epsilon_sweep compares it with the micro legs.  Its steps
    run on a ``_Workspace``.
    """
    states = np.array(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if not np.isfinite(states).all():
        raise ModelError("non-finite entries in the initial states")
    N, m = states.shape
    one = np.ones(1)
    flow = _particle_drift(model, N, m, one)

    def on_nullcline(s, si, sj, W, ds, out):   # W is not evolved: the nullcline's
        return flow(s, si, sj, _nullcline_array(model, si, sj), ds, None)

    def parts(y: np.ndarray) -> tuple:
        s = y.reshape(1, N, m)
        return s, s[:, :, None, :], s[:, None, :, :], None

    traj = StateTrajectory()

    def sample(y: np.ndarray, t: float) -> None:
        traj.times.append(t)
        traj.states.append(y.reshape(N, m).copy())

    ws = _Workspace(on_nullcline, one, N * m, parts=parts)
    run_grid(lambda y, t: ws.rk4(y, t, dt), states.ravel(), 0.0, dt, T, 1, sample,
             step_checks_finite=True)
    return traj
