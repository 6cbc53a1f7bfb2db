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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .closures import ClosureKind, integrate_closure
from .errors import IntegrationError, ModelError
from .jumpsim import DiscreteConfiguration, _sample_grid, simulate_minimal
from .microsim import AgentConfiguration, integrate_micro, integrate_reduced
from .models import MinimalParams, SmoothModel
from .moments import MinimalMoments

log = logging.getLogger(__name__)


def polarized_link_config(N: int, rho_p: float, p_pp: float, p_mm: float,
                          p_pm: float, rng) -> DiscreteConfiguration:
    """Random configuration with exact plus count and exact link counts.

    round(N rho_p) agents are plus; within each unordered pair type exactly
    round(p * #pairs) links are placed uniformly at random, so the realized
    minimal moments coincide with their ensemble expectation.
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

    def place(members_a, members_b, prob, same):
        if same:
            ii, jj = np.triu_indices(len(members_a), 1)
            pairs_i = members_a[ii]
            pairs_j = members_a[jj]
        else:
            pairs_i = np.repeat(members_a, len(members_b))
            pairs_j = np.tile(members_b, len(members_a))
        n_pairs = pairs_i.size
        n_links = int(round(prob * n_pairs))
        if n_links == 0 or n_pairs == 0:
            return
        chosen = rng.choice(n_pairs, size=n_links, replace=False)
        W[pairs_i[chosen], pairs_j[chosen]] = 1
        W[pairs_j[chosen], pairs_i[chosen]] = 1

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
    mode: str
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
        return {
            "params": {k: getattr(self.params, k) for k in
                       ("alpha_pm", "alpha_mp", "beta_pp", "beta_mm", "beta_pm",
                        "gamma_pp", "gamma_mm", "gamma_pm")},
            "N": self.N,
            "runs": self.runs,
            "T": self.T,
            "dt": self.dt,
            "seed": self.seed,
            "mode": self.mode,
            "sup_error_conditional": self.sup_error_conditional,
            "sup_error_kirkwood": self.sup_error_kirkwood,
            "monte_carlo_stderr": self.monte_carlo_stderr,
            "closure_status": self.closure_status,
            "n_samples": int(self.times.size),
        }


def _replica_moments(args) -> np.ndarray:
    (p_arr, N, rho_p, p_pp, p_mm, p_pm, T, dt, seed, replica, mode, tau_dt) = args
    rng = np.random.default_rng((seed, replica))
    cfg = polarized_link_config(N, rho_p, p_pp, p_mm, p_pm, rng)
    p = MinimalParams(*p_arr)
    traj = simulate_minimal(cfg, p, T=T, seed=(seed, replica, 1), mode=mode,
                            tau_dt=tau_dt, sample_dt=dt,
                            record_configs=False, record_moments=True)
    return traj.moments


def check_comparison_grid(N: int, runs: int, T: float, dt: float) -> None:
    """Raise ModelError unless run_comparison accepts these sizes."""
    if N < 10:
        raise ModelError("comparison needs N >= 10")
    if runs < 2:
        raise ModelError("comparison needs runs >= 2")
    if abs(round(T / dt) * dt - T) > 1e-9:
        raise ModelError("T must be a multiple of the sampling dt")


def run_comparison(
    p: MinimalParams,
    N: int,
    runs: int,
    T: float,
    dt: float,
    seed: int,
    init: dict | None = None,
    mode: str = "gillespie",
    tau_dt: float | None = None,
    closure_dt: float = 1e-3,
    workers: int = 1,
) -> ComparisonReport:
    """Score ensemble-mean minimal-model moments against both closures.

    ``init`` prescribes the generator (rho_p and per-type link densities);
    replica k uses the seed stream (seed, k).  Closure trajectories start
    from the realized ensemble-mean moments at t = 0 and are sampled on the
    same dt grid.  The report carries per-component error curves, their
    time-sup, and the Monte-Carlo standard error.
    """
    check_comparison_grid(N, runs, T, dt)
    init = dict(init or {})
    rho_p = float(init.get("rho_p", 0.5))
    p_pp = float(init.get("p_pp", 0.5))
    p_mm = float(init.get("p_mm", 0.5))
    p_pm = float(init.get("p_pm", 0.25))

    arg_list = [
        (tuple(p.as_array()), N, rho_p, p_pp, p_mm, p_pm, T, dt, seed, k, mode, tau_dt)
        for k in range(runs)
    ]
    results: list[np.ndarray | None] = [None] * runs
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for k, res in enumerate(pool.map(_replica_moments, arg_list)):
                    results[k] = res
        except (BrokenProcessPool, OSError) as exc:
            # the pool itself failed; errors raised by a replica propagate
            log.warning("worker pool failed (%s); running replicas serially", exc)
            results = [None] * runs
    if results[0] is None:
        for k, args in enumerate(arg_list):
            results[k] = _replica_moments(args)

    stack = np.stack(results)                       # (runs, n, 6)
    n_grid = stack.shape[1]
    times = _sample_grid(T, dt)
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
    closures = {}
    errors = {}
    status = {}
    sups = {}
    for kind in (ClosureKind.CONDITIONAL, ClosureKind.KIRKWOOD):
        traj = integrate_closure(m0, p, kind, dt=dt_int, T=T, sample_stride=stride)
        n_common = min(len(traj.times), n_grid)
        closures[kind] = traj.moments[:n_common]
        err = np.abs(mean[:n_common] - traj.moments[:n_common])
        errors[kind] = err
        sups[kind] = float(err.max()) if err.size else 0.0
        status[kind.value] = traj.status

    return ComparisonReport(
        params=p, N=N, runs=runs, T=T, dt=dt, seed=seed, mode=mode,
        times=times, mean_moments=mean, stderr_moments=stderr,
        mean_rho_p=mean_rho_p, stderr_rho_p=stderr_rho_p,
        closure_conditional=closures[ClosureKind.CONDITIONAL],
        closure_kirkwood=closures[ClosureKind.KIRKWOOD],
        err_conditional=errors[ClosureKind.CONDITIONAL],
        err_kirkwood=errors[ClosureKind.KIRKWOOD],
        sup_error_conditional=sups[ClosureKind.CONDITIONAL],
        sup_error_kirkwood=sups[ClosureKind.KIRKWOOD],
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
        return {"eps": self.eps, "gaps": self.gaps, "monotone": self.monotone,
                "T": self.T, "dt": self.dt}


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
    The gap is the sup-norm state difference at T.  The table is expected to
    be non-increasing in eps; a violation is reported via ``monotone`` and a
    warning, not an exception.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list):
        raise ModelError("eps values must be positive")
    red = integrate_reduced(cfg0.states, model,
                            dt=reduced_dt if reduced_dt is not None else dt, T=T)
    target = red.final()
    gaps = []
    for eps in eps_list:
        traj = integrate_micro(cfg0, model, dt=dt, T=T, eps_w=eps, store=False)
        gaps.append(float(np.max(np.abs(traj.final().states - target))))
    order = np.argsort(eps_list)[::-1]
    sorted_gaps = [gaps[i] for i in order]
    monotone = all(sorted_gaps[i + 1] <= sorted_gaps[i] + 1e-15
                   for i in range(len(sorted_gaps) - 1))
    if not monotone:
        log.warning("epsilon sweep gap table is not monotone: %s", dict(zip(eps_list, gaps)))
    return EpsilonSweepReport(eps=eps_list, gaps=gaps, monotone=monotone, T=T, dt=dt)
