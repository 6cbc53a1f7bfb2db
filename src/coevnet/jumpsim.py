"""Stochastic simulation of the discrete-state and binary-weight models.

The minimal model (binary states, binary links) is simulated exactly with a
Gillespie event loop over aggregated channels: two state-flip channels and a
creation/removal channel per unordered pair type.  Channel totals depend only
on the plus-agent count and the per-type link counts, so each event costs
O(1) bookkeeping (O(N) for the rare state flips).  One run protocol,
``run(T, rng, record_until, events)``, has two engines: ``_MinimalEngine``
is the pure-python reference, and ``_CMinimalEngine`` runs the same loop in
the compiled kernels (``_kernels.c``, built and loaded by ``_native``),
which draw their uniforms from the same numpy generator and call
``record_until`` and append to ``events`` through hooks, at the points
where the python loop does.  For a fixed seed both give the same events,
samples and final generator state, bit for bit.  The engine is chosen per
run from ``_native.LIB``: when it is None (no working compiler) the python
engine runs, about 60 times slower.

The co-evolving voter model runs on unit-rate per-agent clocks; the hybrid
bounded-confidence model alternates deterministic RK4 state steps with
exponential link jumps.

Flip-rate convention, worked through the (+, -) contact: ``alpha_pm`` is
the rate at which a plus agent flips to minus per linked minus neighbor
(scaled by 1/N), so agent i with k linked opposite-state neighbors flips at
(alpha(s_i)/N) k.  A minus agent flipping up converts each of its linked
(+, -) pairs into (+, +) pairs, which is why ``alpha_mp`` multiplies the
cross-mass gain of the (+, +) moments while ``alpha_pm`` drains them; the
easy mistake is reading ``alpha_pm`` as "minus gains plus", which swaps the
gain and loss channels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import log
from typing import Callable

import numpy as np

from . import _native
from .errors import IntegrationError, InvariantViolation, ModelError
from .models import MinimalParams
from .stepping import rk4_step, run_grid, sample_times

_PP, _MM, _PM = 0, 1, 2


def _link_matrix(weights, N: int) -> np.ndarray:
    """An int8 copy of ``weights``, an (N, N) matrix over {0, 1} (bool
    accepted), symmetric with zero diagonal; values are checked before the
    cast, so 0.5, 1.9 or 257 is refused, not cast to 0 or 1."""
    W = np.asarray(weights)
    if W.shape != (N, N):
        raise InvariantViolation("weight matrix shape mismatch")
    if not ((W == 0) | (W == 1)).all():
        raise InvariantViolation("weights must be 0 or 1")
    W = W.astype(np.int8)
    if np.any(np.diagonal(W) != 0):
        raise InvariantViolation("weight matrix must have zero diagonal")
    if not (W == W.T).all():
        raise InvariantViolation("weight matrix must be symmetric")
    return W


@dataclass
class DiscreteConfiguration:
    """Binary states (+1/-1) with a symmetric binary link matrix, held as
    int8 copies; the given values are checked before the cast, so a state
    1.9 or a weight 0.5 (``_link_matrix``) is refused rather than truncated."""

    states: np.ndarray       # (N,) over {-1, +1}
    weights: np.ndarray      # (N, N) over {0, 1}, symmetric, zero diagonal
    t: float = 0.0

    def __post_init__(self):
        states = np.asarray(self.states)
        N = states.shape[0]
        if N < 2:
            raise InvariantViolation("need at least two agents")
        if not ((states == -1) | (states == 1)).all():
            raise InvariantViolation("states must be -1 or +1")
        self.states = states.astype(np.int8)
        self.weights = _link_matrix(self.weights, N)

    @property
    def N(self) -> int:
        return self.states.shape[0]


@dataclass
class HybridConfiguration:
    """Continuous states with a symmetric binary link matrix."""

    states: np.ndarray       # (N, m)
    weights: np.ndarray      # (N, N) binary symmetric
    t: float = 0.0

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float).copy()
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        N = self.states.shape[0]
        if N < 2:
            raise InvariantViolation("need at least two agents")
        if not np.all(np.isfinite(self.states)):
            raise InvariantViolation("non-finite states")
        self.weights = _link_matrix(self.weights, N)

    @property
    def N(self) -> int:
        return self.states.shape[0]


@dataclass
class JumpTrajectory:
    times: list[float] = field(default_factory=list)
    configs: list = field(default_factory=list)
    events: list[tuple] = field(default_factory=list)      # (t, kind, i, j)
    moments: np.ndarray | None = None                      # (n, 6) minimal-model moments

    def final(self):
        return self.configs[-1]


@dataclass
class MinimalRateTable:
    flip_rates: np.ndarray       # (N,)
    create_rates: np.ndarray     # (N, N), nonzero on unlinked i < j
    remove_rates: np.ndarray     # (N, N), nonzero on linked i < j

    @property
    def total(self) -> float:
        return float(self.flip_rates.sum() + self.create_rates.sum() + self.remove_rates.sum())


def minimal_rates(cfg: DiscreteConfiguration, p: MinimalParams) -> MinimalRateTable:
    """Event rates of the minimal model at a configuration.

    Agent i flips at rate (1/N) sum_{j != i} w_ij alpha(s_i, s_j), where
    alpha(+,-) = alpha_pm, alpha(-,+) = alpha_mp and same-state contacts do
    not flip.  Each unlinked unordered pair {i, j} creates a link at
    beta(s_i, s_j); each linked pair removes it at gamma(s_i, s_j), both
    looked up by the unordered state pair.
    """
    s = cfg.states
    W = cfg.weights
    N = cfg.N
    plus = s == 1
    # cross-neighbour counts drive flips
    cross = W * (s[:, None] != s[None, :])
    k_cross = cross.sum(axis=1)
    flip = np.where(plus, p.alpha_pm, p.alpha_mp) * k_cross / N

    both_plus = plus[:, None] & plus[None, :]
    both_minus = ~plus[:, None] & ~plus[None, :]
    beta_mat = np.where(both_plus, p.beta_pp, np.where(both_minus, p.beta_mm, p.beta_pm))
    gamma_mat = np.where(both_plus, p.gamma_pp, np.where(both_minus, p.gamma_mm, p.gamma_pm))
    upper = np.triu(np.ones((N, N), dtype=bool), 1)
    create = np.where(upper & (W == 0), beta_mat, 0.0)
    remove = np.where(upper & (W == 1), gamma_mat, 0.0)
    return MinimalRateTable(flip_rates=flip, create_rates=create, remove_rates=remove)


def _pair_counts(N: int, n_plus: int):
    """Unordered (pp, mm, pm) pair counts with n_plus plus agents."""
    nm = N - n_plus
    return (n_plus * (n_plus - 1)) // 2, (nm * (nm - 1)) // 2, n_plus * nm


def _minimal_moments(N: int, n_plus: int, L) -> np.ndarray:
    """The six moments from the plus count and the link counts per pair type."""
    P = _pair_counts(N, n_plus)
    denom = N * (N - 1)
    return np.array([
        2.0 * L[_PP] / denom,
        2.0 * (P[_PP] - L[_PP]) / denom,
        2.0 * L[_MM] / denom,
        2.0 * (P[_MM] - L[_MM]) / denom,
        1.0 * L[_PM] / denom,
        1.0 * (P[_PM] - L[_PM]) / denom,
    ])


class _MinimalEngine:
    """Mutable minimal-model state with O(1) aggregate channel rates.

    Its ``run`` is the pure-python reference of the compiled engine
    (``_CMinimalEngine``) and its fallback.
    """

    def __init__(self, cfg: DiscreteConfiguration, p: MinimalParams):
        self.N = cfg.N
        self.s = (cfg.states == 1).astype(np.int8)       # 1 for +, 0 for -
        self.W = cfg.weights.astype(np.int8)
        self.p = p
        N = self.N
        self.plus_list = [i for i in range(N) if self.s[i] == 1]
        self.minus_list = [i for i in range(N) if self.s[i] == 0]
        self.member_pos = np.empty(N, dtype=np.int64)
        for idx, a in enumerate(self.plus_list):
            self.member_pos[a] = idx
        for idx, a in enumerate(self.minus_list):
            self.member_pos[a] = idx
        self.links: list[list[int]] = [[], [], []]
        self.link_pos: list[dict] = [{}, {}, {}]
        ii, jj = np.nonzero(np.triu(self.W, 1))
        for i, j in zip(ii.tolist(), jj.tolist()):
            tau = self._pair_type(i, j)
            code = i * N + j
            self.link_pos[tau][code] = len(self.links[tau])
            self.links[tau].append(code)

    def _pair_type(self, i: int, j: int) -> int:
        si, sj = self.s[i], self.s[j]
        if si and sj:
            return _PP
        if not si and not sj:
            return _MM
        return _PM

    def moments(self) -> np.ndarray:
        return _minimal_moments(self.N, len(self.plus_list), [len(lst) for lst in self.links])

    def snapshot(self, t: float) -> DiscreteConfiguration:
        states = np.where(self.s == 1, 1, -1).astype(np.int8)
        return DiscreteConfiguration(states=states, weights=self.W, t=t)   # which copies W

    # -- mutations ---------------------------------------------------------

    def _link_add(self, i: int, j: int):
        if i > j:
            i, j = j, i
        tau = self._pair_type(i, j)
        code = i * self.N + j
        self.link_pos[tau][code] = len(self.links[tau])
        self.links[tau].append(code)
        self.W[i, j] = 1
        self.W[j, i] = 1

    def _link_drop(self, i: int, j: int):
        if i > j:
            i, j = j, i
        tau = self._pair_type(i, j)
        code = i * self.N + j
        pos = self.link_pos[tau].pop(code)
        lst = self.links[tau]
        last = lst.pop()
        if pos < len(lst):
            lst[pos] = last
            self.link_pos[tau][last] = pos
        self.W[i, j] = 0
        self.W[j, i] = 0

    def flip(self, a: int):
        neighbors = np.nonzero(self.W[a])[0].tolist()
        for nb in neighbors:
            self._link_drop(a, nb)
        old = self.s[a]
        if old == 1:
            pos = self.member_pos[a]
            last = self.plus_list.pop()
            if pos < len(self.plus_list):
                self.plus_list[pos] = last
                self.member_pos[last] = pos
            self.member_pos[a] = len(self.minus_list)
            self.minus_list.append(a)
        else:
            pos = self.member_pos[a]
            last = self.minus_list.pop()
            if pos < len(self.minus_list):
                self.minus_list[pos] = last
                self.member_pos[last] = pos
            self.member_pos[a] = len(self.plus_list)
            self.plus_list.append(a)
        self.s[a] = 1 - old
        for nb in neighbors:
            self._link_add(a, nb)

    # -- sampling helpers --------------------------------------------------

    def sample_cross_link_endpoint(self, rng, want_plus: bool) -> int:
        lst = self.links[_PM]
        code = lst[int(rng.random() * len(lst))]
        i, j = divmod(code, self.N)
        if (self.s[i] == 1) == want_plus:
            return i
        return j

    def sample_unlinked_pair(self, rng, tau: int) -> tuple[int, int] | None:
        """Uniform unlinked pair of the given type; None if none exists."""
        P = _pair_counts(self.N, len(self.plus_list))
        U = P[tau] - len(self.links[tau])
        if U <= 0:
            return None
        if tau == _PP:
            pool_a = pool_b = self.plus_list
        elif tau == _MM:
            pool_a = pool_b = self.minus_list
        else:
            pool_a, pool_b = self.plus_list, self.minus_list
        # rejection sampling; fall back to enumeration for very dense types
        if U >= max(1, P[tau] // 20):
            for _ in range(200):
                i = pool_a[int(rng.random() * len(pool_a))]
                j = pool_b[int(rng.random() * len(pool_b))]
                if i != j and self.W[i, j] == 0:
                    return (i, j) if i < j else (j, i)
        a = np.asarray(pool_a, dtype=np.int64)
        b = np.asarray(pool_b, dtype=np.int64)
        sub = self.W[np.ix_(a, b)]
        open_ij = np.argwhere(sub == 0)
        if tau == _PM:
            # every product entry is a distinct cross pair
            cand = [(min(int(a[x]), int(b[y])), max(int(a[x]), int(b[y]))) for x, y in open_ij]
        else:
            # same-state product: drop the diagonal and symmetric duplicates
            cand = [(int(a[x]), int(b[y])) for x, y in open_ij if a[x] < b[y]]
        if not cand:
            return None
        return cand[int(rng.random() * len(cand))]

    def sample_linked_pair(self, rng, tau: int) -> tuple[int, int]:
        lst = self.links[tau]
        code = lst[int(rng.random() * len(lst))]
        return divmod(code, self.N)

    # -- the Gillespie loop ------------------------------------------------

    def run(self, T: float, rng, record_until, events: list | None):
        """Simulate from t = 0 to T, appending events unless ``events`` is None.

        ``record_until(t)`` records every sample-grid time up to t and
        returns the next one; a grid time is recorded before the event that
        crosses it is applied.
        """
        # hot loop: bind lookups once and compute channel rates inline
        N = self.N
        p = self.p
        a_pm, a_mp = p.alpha_pm, p.alpha_mp
        b_pp, b_mm, b_pm = p.beta_pp, p.beta_mm, p.beta_pm
        c_pp, c_mm, c_pm = p.gamma_pp, p.gamma_mm, p.gamma_pm
        links_pp, links_mm, links_pm = self.links
        uniform = rng.random
        t = 0.0
        t_sample = record_until(0.0)
        while t < T:
            n_p = len(self.plus_list)
            n_m = N - n_p
            L0, L1, L2 = len(links_pp), len(links_mm), len(links_pm)
            U0 = n_p * (n_p - 1) // 2 - L0
            U1 = n_m * (n_m - 1) // 2 - L1
            U2 = n_p * n_m - L2
            r_fp = a_pm * L2 / N
            r_fm = a_mp * L2 / N
            r_c0 = b_pp * U0
            r_c1 = b_mm * U1
            r_c2 = b_pm * U2
            r_r0 = c_pp * L0
            r_r1 = c_mm * L1
            r_r2 = c_pm * L2
            total = r_fp + r_fm + r_c0 + r_c1 + r_c2 + r_r0 + r_r1 + r_r2
            if total <= 0.0:
                break
            t_next = t - log(1.0 - uniform()) / total
            if t_next >= T:
                break
            if t_sample <= t_next:
                t_sample = record_until(t_next)
            u = uniform() * total
            if u < r_fp + r_fm:
                a = self.sample_cross_link_endpoint(rng, want_plus=u < r_fp)
                self.flip(a)
                event = (t_next, "flip", a, -1)
            else:
                u -= r_fp + r_fm
                if u < r_c0 + r_c1 + r_c2:
                    tau = 0 if u < r_c0 else (1 if u < r_c0 + r_c1 else 2)
                    pair = self.sample_unlinked_pair(rng, tau)
                    event = None
                    if pair is not None:
                        self._link_add(*pair)
                        event = (t_next, "create", *pair)
                else:
                    u -= r_c0 + r_c1 + r_c2
                    tau = 0 if u < r_r0 else (1 if u < r_r0 + r_r1 else 2)
                    i, j = self.sample_linked_pair(rng, tau)
                    self._link_drop(i, j)
                    event = (t_next, "remove", i, j)
            if events is not None and event is not None:
                events.append(event)
            t = t_next
        record_until(T)


# -- compiled Gillespie engine -------------------------------------------------

# pair codes i N + j are int32 in the compiled engine
_C_ENGINE_MAX_N = 46340
# the return code of coevnet_minimal_run for a removal drawn without links
_RUN_EMPTY = 2


class _CMinimalEngine:
    """The minimal model's Gillespie loop in the compiled kernels.

    The state of ``_MinimalEngine`` lives in numpy arrays that this object
    owns and ``coevnet_minimal_run`` mutates: ``s`` and ``W`` as in the
    python engine, member and per-type link lists with position indexes
    (a code-indexed array in place of the dicts), all int32, so N is at most
    ``_C_ENGINE_MAX_N``.  ``run`` draws the same uniforms in the same order
    as the python loop, so events, samples and the final generator state are
    bitwise equal.
    """

    def __init__(self, lib, cfg: DiscreteConfiguration, p: MinimalParams):
        N = self.N = cfg.N
        self.s = (cfg.states == 1).astype(np.int8)
        self.W = cfg.weights.astype(np.int8, order="C")
        # np.empty leaves untouched capacity unallocated by the OS
        self._members = np.empty((2, N), dtype=np.int32)
        self._member_pos = np.empty(N, dtype=np.int32)
        self._links = np.empty((3, N * (N - 1) // 2), dtype=np.int32)
        self._link_pos = np.empty(N * N, dtype=np.int32)
        self._scratch = np.empty(N, dtype=np.int32)
        # the engine holds these arrays and builds the lists (coevnet_minimal_init)
        self._st = lib.MinimalEngine(
            np.ascontiguousarray(p.as_array(), dtype=np.float64), self.s, self.W, self._members,
            self._member_pos, self._links, self._link_pos, self._scratch)

    def moments(self) -> np.ndarray:
        return _minimal_moments(self.N, self._st.n_members[1], self._st.n_links)

    # the same s and W arrays as the python engine's
    snapshot = _MinimalEngine.snapshot

    def run(self, T: float, rng, record_until, events: list | None):
        """``_MinimalEngine.run`` in the kernel, which calls ``record_until``
        and appends to ``events`` where the python loop does.

        The generator's lock is held while the kernel and its hooks run, so
        ``record_until`` must not draw from ``rng``.
        """
        bitgen = rng.bit_generator
        t_sample = record_until(0.0)
        with bitgen.lock:
            status = self._st.run(bitgen.capsule, T, t_sample, record_until, events)
        if status == _RUN_EMPTY:
            raise IndexError("removal drawn for a pair type without links")
        record_until(T)


def _gillespie_engine(cfg: DiscreteConfiguration, p: MinimalParams):
    """The engine of ``simulate_minimal``: the compiled engine when
    ``_native.LIB`` is loaded and N is at most _C_ENGINE_MAX_N, else the
    python engine."""
    if _native.LIB is None or cfg.N > _C_ENGINE_MAX_N:
        return _MinimalEngine(cfg, p)
    return _CMinimalEngine(_native.LIB, cfg, p)


def _grid_recorder(grid: np.ndarray, record: Callable[[float], None]) -> Callable[[float], float]:
    """record_until(t): record(g) for every grid time g up to t not yet recorded,
    in order; returns the next grid time, or inf past the last one."""
    next_idx = 0

    def record_until(t_limit):
        nonlocal next_idx
        while next_idx < len(grid) and grid[next_idx] <= t_limit + 1e-12:
            record(float(grid[next_idx]))
            next_idx += 1
        return float(grid[next_idx]) if next_idx < len(grid) else np.inf

    return record_until


def simulate_minimal(
    cfg: DiscreteConfiguration,
    p: MinimalParams,
    T: float,
    seed: int,
    sample_dt: float | None = None,
    record_events: bool = False,
    record_configs: bool = True,
) -> JumpTrajectory:
    """Simulate the minimal model's exact continuous-time Markov chain up to T.

    Samples at ``stepping.sample_times(T, sample_dt)``: each records its time
    and moments (O(1) each), and its configuration if ``record_configs``.
    When the total rate hits zero the state is absorbing and time
    fast-forwards to T.  Deterministic for a fixed seed, whichever engine
    runs it.
    """
    grid = sample_times(T, sample_dt)
    rng = np.random.default_rng(seed)
    eng = _gillespie_engine(cfg, p)
    traj = JumpTrajectory()
    mom = []

    def record(t):
        traj.times.append(t)
        if record_configs:
            traj.configs.append(eng.snapshot(t))
        mom.append(eng.moments())

    eng.run(T, rng, _grid_recorder(grid, record), traj.events if record_events else None)
    traj.moments = np.asarray(mom)
    return traj


# -- co-evolving voter model ------------------------------------------------


def apply_voter_event(
    states: np.ndarray,
    weights: np.ndarray,
    i: int,
    j: int,
    rng,
    p: float,
    q: float,
    variant: str,
) -> tuple:
    """Resolve one voter interaction of agent i with linked neighbor j, in place.

    Returns an event tuple (kind, i, j) or None when nothing happened.
    Requires s_j != s_i (callers skip same-state picks).
    """
    N = states.shape[0]
    if rng.random() < p:
        if variant == "pq":
            if rng.random() < q:
                weights[i, j] = weights[j, i] = 0
                return ("remove", i, j)
            non_nb = np.nonzero(weights[i] == 0)[0]
            non_nb = non_nb[non_nb != i]
            if non_nb.size == 0:
                return None
            k = int(non_nb[rng.integers(non_nb.size)])
            weights[i, k] = weights[k, i] = 1
            return ("create", i, k)
        # original variant: drop (i, j), reconnect to a same-state unlinked node
        weights[i, j] = weights[j, i] = 0
        cands = np.nonzero((states == states[i]) & (weights[i] == 0))[0]
        cands = cands[(cands != i) & (cands != j)]
        if cands.size > 0:
            k = int(cands[rng.integers(cands.size)])
            weights[i, k] = weights[k, i] = 1
            return ("rewire", i, k)
        return ("remove", i, j)
    states[i] = states[j]
    return ("adopt", i, j)


def simulate_voter(
    cfg: DiscreteConfiguration,
    prob_p: float,
    prob_q: float,
    T: float,
    seed: int,
    variant: str = "pq",
    sample_dt: float | None = None,
    record_events: bool = False,
) -> JumpTrajectory:
    """Continuous-time co-evolving voter model with unit-rate agent clocks.

    On each clock firing the agent inspects a uniformly random linked
    neighbor; nothing happens for isolated agents or same-state pairs.  With
    probability 1 - p it adopts the neighbor's state; with probability p it
    rewires: variant "pq" toggles the inspected link with probability q and
    otherwise links to a random non-neighbor, variant "original" removes the
    link and reconnects to a random same-state unlinked node (skipped when
    none exists).
    """
    if not (0.0 <= prob_p <= 1.0 and 0.0 <= prob_q <= 1.0):
        raise ModelError("probabilities must lie in [0, 1]")
    if variant not in ("pq", "original"):
        raise ModelError(f"unknown voter variant {variant!r}")
    rng = np.random.default_rng(seed)
    states = cfg.states.copy()
    weights = cfg.weights.copy()
    N = cfg.N
    traj = JumpTrajectory()

    def record(t):
        traj.times.append(t)
        traj.configs.append(DiscreteConfiguration(states=states, weights=weights, t=t))

    record_until = _grid_recorder(sample_times(T, sample_dt), record)
    t = 0.0
    record_until(0.0)
    while t < T:
        t_next = t + rng.exponential(1.0 / N)
        if t_next >= T:
            break
        record_until(t_next)
        i = int(rng.integers(N))
        neighbors = np.nonzero(weights[i])[0]
        if neighbors.size > 0:
            j = int(neighbors[rng.integers(neighbors.size)])
            if states[j] != states[i]:
                evt = apply_voter_event(states, weights, i, j, rng, prob_p, prob_q, variant)
                if evt is not None and record_events:
                    traj.events.append((t_next,) + evt)
        t = t_next
    record_until(T)
    return traj


# -- hybrid bounded-confidence model ----------------------------------------


def simulate_hybrid_bc(
    cfg: HybridConfiguration,
    F: Callable,
    r: Callable,
    tau: float,
    dt: float,
    T: float,
    seed: int,
    sample_stride: int = 1,
) -> JumpTrajectory:
    """Averaging opinion dynamics on a co-evolving unweighted graph.

    Per dt step: (a) RK4 on ds_i/dt = (1/N) sum_j w_ij (F(s_j) - s_i) with
    frozen links; (b) per unordered pair, the link relaxes toward the
    confidence kernel at jump rate |r(|s_i - s_j|) - w_ij| / tau: a link
    appears at rate r/tau when absent and disappears at rate (1 - r)/tau
    when present (fired when a uniform draw is below 1 - exp(-rate dt)).
    With r valued in [0, 1] the stationary link probability is exactly r, so
    tau -> 0 recovers bounded-confidence dynamics with w_ij = r(|s_i - s_j|);
    out-of-confidence links (r = 0) are removed at the full rate 1/tau.
    A non-finite state or link rate raises IntegrationError naming the
    time of its step.
    """
    if not (tau > 0 and dt > 0):   # NaN is not
        raise ModelError("tau and dt must be positive")
    if dt >= tau:
        warnings.warn("dt >= tau: splitting accuracy degraded", stacklevel=2)
    rng = np.random.default_rng(seed)
    W = cfg.weights.astype(float).copy()
    N = cfg.N
    traj = JumpTrajectory()

    def sample(y, t):   # HybridConfiguration copies y and W
        traj.times.append(t)
        traj.configs.append(HybridConfiguration(states=y.reshape(N, -1), weights=W, t=t))

    def drift(flat):
        s = flat.reshape(N, -1)
        fs = np.asarray(F(s), dtype=float)
        deg = W.sum(axis=1)
        return ((W @ fs - deg[:, None] * s) / N).ravel()

    iu = np.triu_indices(N, 1)

    def step(y, t):
        y = rk4_step(drift, y, dt)
        states = y.reshape(N, -1)
        diff = states[:, None, :] - states[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        rvals = np.asarray(r(dist), dtype=float)
        rate = (np.where(W == 0, rvals, np.maximum(1.0 - rvals, 0.0)) / tau)[iu]
        if not np.isfinite(rate).all():
            raise IntegrationError(f"non-finite link rate in the step from t={t:.6g}")
        prob = 1.0 - np.exp(-rate * dt)
        draws = rng.random(size=iu[0].size)
        fire = draws < prob
        wi = W[iu]
        new_upper = np.where(fire, 1.0 - wi, wi)
        W[iu] = new_upper
        W[(iu[1], iu[0])] = new_upper
        return y

    run_grid(step, cfg.states.ravel(), cfg.t, dt, T, sample_stride, sample)
    return traj
