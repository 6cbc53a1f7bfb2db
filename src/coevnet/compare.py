"""Micro-versus-macro validation: ensemble minimal-model simulations against
the closure ODE trajectories, and the instantaneous-network limit sweep.

Initial configurations are uniform random graphs with exact per-type link
counts (the fixed-edge-count flavor of independent-link sampling), so every
replica realizes exactly the prescribed initial moments and both closure
trajectories start from the realized ensemble mean; the comparison error is
identically zero at t = 0.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _pool
from .closures import ClosureKind, integrate_closure
from .errors import IntegrationError, ModelError
from .jumpsim import DiscreteConfiguration, simulate_minimal
from .microsim import AgentConfiguration, _run_legs, integrate_reduced
from .models import MinimalParams, SmoothModel
from .moments import MinimalMoments
from .stepping import grid_steps, sample_times

log = logging.getLogger(__name__)


def polarized_link_config(N: int, rho_p: float, p_pp: float, p_mm: float,
                          p_pm: float, rng) -> DiscreteConfiguration:
    """Random configuration with exact plus count and exact link counts.

    round(N rho_p) agents are plus; within each unordered pair type exactly
    round(p * #pairs) links are placed uniformly at random, so the realized
    minimal moments coincide with their ensemble expectation.  A type's
    pairs are numbered in row-major order over its member lists and only the
    drawn numbers are decoded to agents (row from a per-row count table,
    column from the row's first number), so no pair list is built; the
    ``permutation`` and ``choice`` draws are those of listing every pair.
    """
    if N < 2:
        raise ModelError("need at least two agents")
    for name, val in (("rho_p", rho_p), ("p_pp", p_pp), ("p_mm", p_mm), ("p_pm", p_pm)):
        if not 0.0 <= val <= 1.0:
            raise ModelError(f"{name} must lie in [0, 1]")
    n_plus = int(round(N * rho_p))
    states = np.full(N, -1, dtype=np.int8)
    perm = rng.permutation(N)
    states[perm[:n_plus]] = 1
    plus_idx = np.nonzero(states == 1)[0]
    minus_idx = np.nonzero(states == -1)[0]
    W = np.zeros((N, N), dtype=np.int8)
    W_flat = W.reshape(-1)

    def place(members_a, members_b, prob, same):
        rows = np.arange(members_a.size)
        # row x pairs a[x] with a[x+1:] (same type) or with all of b
        per_row = members_a.size - 1 - rows if same else np.full(rows.size, members_b.size)
        n_pairs = int(per_row.sum())
        n_links = int(round(prob * n_pairs))
        if n_links == 0 or n_pairs == 0:
            return
        chosen = rng.choice(n_pairs, size=n_links, replace=False)
        x = np.repeat(rows, per_row)[chosen]
        y = chosen - (np.cumsum(per_row) - per_row)[x] + (x + 1 if same else 0)
        pi, pj = members_a[x], members_b[y]
        W_flat[pi * N + pj] = 1
        W_flat[pj * N + pi] = 1

    place(plus_idx, plus_idx, p_pp, same=True)
    place(minus_idx, minus_idx, p_mm, same=True)
    place(plus_idx, minus_idx, p_pm, same=False)
    return DiscreteConfiguration(states=states, weights=W)


@dataclass
class ComparisonReport:
    params: MinimalParams
    N: int
    runs: int
    T: float
    dt: float
    seed: int
    times: np.ndarray
    mean_moments: np.ndarray             # (n, 6) ensemble mean
    stderr_moments: np.ndarray           # (n, 6) standard error of the mean
    closure_conditional: np.ndarray      # (n_c, 6)
    closure_kirkwood: np.ndarray         # (n_k, 6)
    err_conditional: np.ndarray          # (n_c, 6)
    err_kirkwood: np.ndarray             # (n_k, 6)
    sup_error_conditional: float = 0.0
    sup_error_kirkwood: float = 0.0
    monte_carlo_stderr: float = 0.0
    closure_status: dict = field(default_factory=dict)
    mean_rho_p: np.ndarray = field(default_factory=lambda: np.empty(0))
    stderr_rho_p: np.ndarray = field(default_factory=lambda: np.empty(0))

    def to_json_dict(self) -> dict:
        keys = ("N", "runs", "T", "dt", "seed", "sup_error_conditional",
                "sup_error_kirkwood", "monte_carlo_stderr", "closure_status")
        return {"params": asdict(self.params), **{k: getattr(self, k) for k in keys},
                "n_samples": int(self.times.size)}


def check_comparison_grid(N: int, runs: int, T: float, dt: float) -> None:
    """Raise ModelError unless run_comparison accepts these sizes."""
    if N < 10:
        raise ModelError("comparison needs N >= 10")
    if runs < 2:
        raise ModelError("comparison needs runs >= 2")
    grid_steps(dt, T, 1, "the sampling dt")


def check_epsilon_sweep(eps_list, T: float, dt: float, reduced_dt: float | None) -> None:
    """Raise ModelError unless every eps is positive (NaN is not) and T is on
    the grids of both the legs and the reduced run."""
    if any(not e > 0 for e in eps_list):
        raise ModelError("eps values must be positive")
    grid_steps(dt, T, 1)
    grid_steps(dt if reduced_dt is None else reduced_dt, T, 1, "reduced_dt")


def run_comparison(
    p: MinimalParams,
    N: int,
    runs: int,
    T: float,
    dt: float,
    seed: int,
    init: dict | None = None,
    closure_dt: float = 1e-3,
    workers: int = 1,
) -> ComparisonReport:
    """Score ensemble-mean minimal-model moments against both closures.

    ``init`` prescribes the generator (rho_p and per-type link densities);
    replica k uses the seed stream (seed, k), and the replicas run on the
    ``_pool`` of ``workers`` forked processes (the CLI's usable CPUs; 1, or a
    call inside a pool's worker, keeps them here), with the same report for
    any ``workers``.  Closure trajectories start from the realized
    ensemble-mean moments at t = 0 and are sampled on the same dt grid.  The
    report carries per-component error curves, their time-sup, and the
    Monte-Carlo standard error.
    """
    check_comparison_grid(N, runs, T, dt)
    init = {"rho_p": 0.5, "p_pp": 0.5, "p_mm": 0.5, "p_pm": 0.25, **(init or {})}
    rho_p, p_pp, p_mm, p_pm = (float(init[k]) for k in ("rho_p", "p_pp", "p_mm", "p_pm"))

    def replica(k: int) -> np.ndarray:
        rng = np.random.default_rng((seed, k))
        cfg = polarized_link_config(N, rho_p, p_pp, p_mm, p_pm, rng)
        return simulate_minimal(cfg, p, T=T, seed=(seed, k, 1), sample_dt=dt,
                                record_configs=False).moments

    stack = np.stack(list(_pool.ordered(replica, runs, workers, "replicas")))   # (runs, n, 6)
    n_grid = stack.shape[1]
    times = sample_times(T, dt)
    if times.size != n_grid:
        raise IntegrationError(f"replicas sampled {n_grid} times, the grid has {times.size}")
    mean = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(runs)
    rho_stack = stack[:, :, 0] + stack[:, :, 1] + stack[:, :, 4] + stack[:, :, 5]
    mean_rho_p = rho_stack.mean(axis=0)
    stderr_rho_p = rho_stack.std(axis=0, ddof=1) / np.sqrt(runs)

    m0 = MinimalMoments.from_array(mean[0])
    stride = max(1, int(round(dt / closure_dt)))
    dt_int = dt / stride
    closures, errors, status, sups = {}, {}, {}, {}
    C, K = ClosureKind.CONDITIONAL, ClosureKind.KIRKWOOD
    for kind in (C, K):
        traj = integrate_closure(m0, p, kind, dt=dt_int, T=T, sample_stride=stride)
        n_common = min(len(traj.times), n_grid)
        closures[kind] = traj.moments[:n_common]
        errors[kind] = err = np.abs(mean[:n_common] - traj.moments[:n_common])
        sups[kind] = float(err.max()) if err.size else 0.0
        status[kind.value] = traj.status

    return ComparisonReport(
        params=p, N=N, runs=runs, T=T, dt=dt, seed=seed,
        times=times, mean_moments=mean, stderr_moments=stderr,
        mean_rho_p=mean_rho_p, stderr_rho_p=stderr_rho_p,
        closure_conditional=closures[C], closure_kirkwood=closures[K],
        err_conditional=errors[C], err_kirkwood=errors[K],
        sup_error_conditional=sups[C], sup_error_kirkwood=sups[K],
        monte_carlo_stderr=float(stderr.max()),
        closure_status=status,
    )


@dataclass
class EpsilonSweepReport:
    eps: list[float]
    gaps: list[float]
    monotone: bool
    T: float
    dt: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def run_epsilon_sweep(
    model: SmoothModel,
    cfg0: AgentConfiguration,
    eps_list,
    dt: float,
    T: float,
    reduced_dt: float | None = None,
) -> EpsilonSweepReport:
    """Gap between the scaled microscopic system and its fast-network limit.

    For each eps the microscopic system runs with the weight equation sped up
    by 1/eps; the limit dynamics slave each pair weight to the nullcline.
    The gap is the sup-norm state difference at T, where both runs end: T
    must be a multiple of both dt and reduced_dt (``stepping.grid_steps``).
    All legs advance as one stacked RK4 run; a leg that overflows raises
    IntegrationError naming the step and its eps.  The table is expected to be non-increasing in eps; a
    violation is reported via ``monotone`` and a warning, not an exception.
    """
    eps_list = [float(e) for e in eps_list]
    check_epsilon_sweep(eps_list, T, dt, reduced_dt)
    if not eps_list:
        return EpsilonSweepReport(eps=[], gaps=[], monotone=True, T=T, dt=dt)
    target = integrate_reduced(cfg0.states, model,
                               dt=reduced_dt if reduced_dt is not None else dt, T=T).final()
    gaps = [float(np.max(np.abs(s - target))) for s in _run_legs(cfg0, model, dt, T, eps_list)]
    by_eps = [g for _, g in sorted(zip(eps_list, gaps), reverse=True)]   # eps descending
    monotone = all(b <= a + 1e-15 for a, b in zip(by_eps, by_eps[1:]))
    if not monotone:
        log.warning("epsilon sweep gap table is not monotone: %s", dict(zip(eps_list, gaps)))
    return EpsilonSweepReport(eps=eps_list, gaps=gaps, monotone=monotone, T=T, dt=dt)
