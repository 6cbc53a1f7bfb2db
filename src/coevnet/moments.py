"""Empirical marginal estimators for configurations and the minimal model's
six-moment extraction.

Pair estimators use ordered-pair normalization: every ordered pair (i, j),
i != j, deposits mass 1/(N(N-1)) at (s_i, s_j, w_ij).  With that convention
rho_+ = f_pp + g_pp + f_pm + g_pm and f_pp + g_pp + f_mm + g_mm +
2 (f_pm + g_pm) = 1 hold without hidden factors; the cross moments store the
ordered (+,-) mass once (equal to the (-,+) mass by weight symmetry).

Counts are accumulated as integers and divided once, so pair marginals match
the single-particle estimator bit-exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ClosureSingular, InvariantViolation, ModelError
from .jumpsim import DiscreteConfiguration, _minimal_moments
from .microsim import AgentConfiguration

log = logging.getLogger(__name__)

DISCRETE_STATE_EDGES = np.array([-1.5, 0.0, 1.5])
DISCRETE_WEIGHT_EDGES = np.array([-0.5, 0.5, 1.5])


@dataclass(frozen=True)
class MinimalMoments:
    """Six ordered-pair moments (f = linked, g = unlinked) of the minimal model."""

    f_pp: float
    g_pp: float
    f_mm: float
    g_mm: float
    f_pm: float
    g_pm: float

    def __post_init__(self):
        vals = self.as_array()
        if not np.all(np.isfinite(vals)):
            raise InvariantViolation("non-finite moment")
        if np.any(vals < -1e-9):
            raise InvariantViolation(f"negative moment beyond tolerance: {vals}")
        total = self.h_pp + self.h_mm + 2.0 * self.h_pm
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolation(f"moments not normalized: sum = {total!r}")

    @property
    def rho_p(self) -> float:
        return self.f_pp + self.g_pp + self.f_pm + self.g_pm

    @property
    def rho_m(self) -> float:
        return self.f_mm + self.g_mm + self.f_pm + self.g_pm

    @property
    def h_pp(self) -> float:
        return self.f_pp + self.g_pp

    @property
    def h_mm(self) -> float:
        return self.f_mm + self.g_mm

    @property
    def h_pm(self) -> float:
        return self.f_pm + self.g_pm

    def as_array(self) -> np.ndarray:
        return np.array([self.f_pp, self.g_pp, self.f_mm, self.g_mm, self.f_pm, self.g_pm])

    @classmethod
    def from_array(cls, y) -> "MinimalMoments":
        y = np.asarray(y, dtype=float)
        return cls(*[float(v) for v in y])


@dataclass
class StateHistogram:
    """Single-state marginal on bin edges; integer counts, mass 1/N per agent."""

    edges: np.ndarray
    counts: np.ndarray          # integer in-range counts
    n_samples: int
    overflow: int = 0

    @property
    def masses(self) -> np.ndarray:
        return self.counts / self.n_samples


@dataclass
class PairHistogram:
    """Pair-with-weight marginal on a (state x state x weight) bin grid."""

    state_edges: np.ndarray
    weight_edges: np.ndarray
    counts: np.ndarray          # integer counts, shape (ns, ns, nw)
    n_pairs: int                # N (N - 1)
    overflow: int = 0

    @property
    def masses(self) -> np.ndarray:
        return self.counts / self.n_pairs

    def total_mass(self) -> float:
        return float(self.counts.sum() + self.overflow) / self.n_pairs

    def marginal_first(self) -> StateHistogram:
        """Marginal over (second state, weight); bit-exact vs the direct estimator."""
        return self._marginal(axis=(1, 2))

    def marginal_second(self) -> StateHistogram:
        """Marginal over (first state, weight)."""
        return self._marginal(axis=(0, 2))

    def _marginal(self, axis) -> StateHistogram:
        slot_counts = self.counts.sum(axis=axis)
        # each agent appears in N-1 ordered pairs per slot
        N = _n_from_pairs(self.n_pairs)
        if np.any(slot_counts % (N - 1) != 0):
            raise InvariantViolation("pair counts are not divisible by N - 1; "
                                     "overflowing samples prevent exact marginalization")
        return StateHistogram(edges=self.state_edges,
                              counts=slot_counts // (N - 1),
                              n_samples=N,
                              overflow=0)


def _n_from_pairs(n_pairs: int) -> int:
    n = int(round((1 + np.sqrt(1 + 4 * n_pairs)) / 2))
    if n * (n - 1) != n_pairs:
        raise InvariantViolation("pair count is not of the form N (N - 1)")
    return n


def _as_state_weight_arrays(cfg):
    if isinstance(cfg, DiscreteConfiguration):
        return cfg.states.astype(float), cfg.weights.astype(float)
    if isinstance(cfg, AgentConfiguration):
        if cfg.m != 1:
            raise ModelError("continuous pair histograms support m = 1 only")
        return cfg.states[:, 0], cfg.weights
    raise ModelError(f"unsupported configuration type {type(cfg).__name__}")


def _default_bins(cfg):
    if isinstance(cfg, DiscreteConfiguration):
        return DISCRETE_STATE_EDGES, DISCRETE_WEIGHT_EDGES
    raise ModelError("bins must be provided for continuous configurations")


def empirical_pair(cfg, bins=None) -> PairHistogram:
    """Histogram of ordered pairs (s_i, s_j, w_ij), mass 1/(N(N-1)) each.

    ``bins`` is a (state_edges, weight_edges) tuple; discrete configurations
    default to edges separating {-1, +1} and {0, 1}.  Out-of-range samples
    are tallied in an overflow counter and reported via a warning.
    """
    s, W = _as_state_weight_arrays(cfg)
    state_edges, weight_edges = bins if bins is not None else _default_bins(cfg)
    state_edges = np.asarray(state_edges, dtype=float)
    weight_edges = np.asarray(weight_edges, dtype=float)
    N = s.shape[0]
    mask = ~np.eye(N, dtype=bool)
    si = np.broadcast_to(s[:, None], (N, N))[mask]
    sj = np.broadcast_to(s[None, :], (N, N))[mask]
    wij = W[mask]
    counts, _ = np.histogramdd(
        np.column_stack([si, sj, wij]),
        bins=(state_edges, state_edges, weight_edges),
    )
    counts = counts.astype(np.int64)
    n_pairs = N * (N - 1)
    overflow = n_pairs - int(counts.sum())
    if overflow:
        log.warning("empirical_pair: %d of %d ordered pairs fell outside the bins",
                    overflow, n_pairs)
    return PairHistogram(state_edges=state_edges, weight_edges=weight_edges,
                         counts=counts, n_pairs=n_pairs, overflow=overflow)


def empirical_marginal1(cfg, bins=None) -> StateHistogram:
    """Single-state histogram with mass 1/N per agent.

    Accepts a configuration or a bare state array (weights are irrelevant
    for the first marginal).
    """
    if isinstance(cfg, np.ndarray):
        s = cfg[:, 0] if cfg.ndim == 2 else cfg
        if cfg.ndim == 2 and cfg.shape[1] != 1:
            raise ModelError("state histograms support m = 1 only")
    else:
        s, _ = _as_state_weight_arrays(cfg)
    if bins is None:
        if not isinstance(cfg, DiscreteConfiguration):
            raise ModelError("bins must be provided for continuous configurations")
        edges = DISCRETE_STATE_EDGES
    else:
        edges = np.asarray(bins, dtype=float)
    counts, _ = np.histogram(s, bins=edges)
    counts = counts.astype(np.int64)
    N = s.shape[0]
    overflow = N - int(counts.sum())
    if overflow:
        log.warning("empirical_marginal1: %d of %d agents fell outside the bins", overflow, N)
    return StateHistogram(edges=edges, counts=counts, n_samples=N, overflow=overflow)


def minimal_moments(cfg: DiscreteConfiguration) -> MinimalMoments:
    """Extract the six ordered-pair moments from a discrete configuration."""
    plus = cfg.states == 1
    linked = np.triu(cfg.weights == 1, 1)
    both_p = plus[:, None] & plus[None, :]
    both_m = ~plus[:, None] & ~plus[None, :]
    L = [int(np.count_nonzero(linked & both)) for both in (both_p, both_m, ~both_p & ~both_m)]
    return MinimalMoments.from_array(_minimal_moments(cfg.N, int(plus.sum()), L))


def _pair_table(mu2) -> np.ndarray:
    """Discrete pair mass table p[a, b, w], a/b indexing (-1, +1), w in (0, 1)."""
    if isinstance(mu2, MinimalMoments):
        p = np.empty((2, 2, 2))
        p[1, 1, 1] = mu2.f_pp
        p[1, 1, 0] = mu2.g_pp
        p[0, 0, 1] = mu2.f_mm
        p[0, 0, 0] = mu2.g_mm
        p[1, 0, 1] = p[0, 1, 1] = mu2.f_pm
        p[1, 0, 0] = p[0, 1, 0] = mu2.g_pm
        return p
    if isinstance(mu2, PairHistogram):
        if mu2.counts.shape != (2, 2, 2):
            raise ModelError("kirkwood_triplet_integral needs the 2x2x2 discrete pair table")
        return mu2.masses
    raise ModelError(f"unsupported pair input {type(mu2).__name__}")


def kirkwood_triplet_integral(mu2, U: Callable) -> dict[str, np.ndarray]:
    """Closure approximations of the triplet collision integral.

    For each discrete pair point (s1, s2, w12) the exact hierarchy needs
    I(z2) = sum over (s3, w13, w23) of U(s1, s3, w13) mu3.  The conditional
    closure replaces mu3 by gamma(s1; s3, w13) mu2(z2); the Kirkwood closure
    factorizes mu3 into the three pair distributions normalized by singles.
    Returns arrays indexed like the pair table, one per closure.

    ``U`` is called as U(s1, s3, w13) with values in {-1, +1} x {-1, +1} x
    {0, 1}.
    """
    p = _pair_table(mu2)
    states = (-1.0, 1.0)
    weights = (0.0, 1.0)
    mu1 = p.sum(axis=(1, 2))                       # marginal of the first slot
    if mu1[0] == 0.0 or mu1[1] == 0.0:
        raise ClosureSingular(
            "vanishing single-particle marginal (consensus boundary): closures undefined")
    h = p.sum(axis=2)                              # weight-averaged pair table
    u_tab = np.empty((2, 2, 2))                    # u_tab[a, c, v]
    for a in range(2):
        for cc in range(2):
            for v in range(2):
                u_tab[a, cc, v] = float(U(states[a], states[cc], weights[v]))

    # inner[a] = sum_{c,v} U(a, c, v) p[a, c, v]; kirk needs it resolved in c
    inner_c = np.einsum("acv,acv->ac", u_tab, p)
    inner = inner_c.sum(axis=1)

    cond = np.empty_like(p)
    kirk = np.empty_like(p)
    for a in range(2):
        for b in range(2):
            for v in range(2):
                cond[a, b, v] = p[a, b, v] * inner[a] / mu1[a]
                acc = 0.0
                for cc in range(2):
                    acc += inner_c[a, cc] * h[b, cc] / (mu1[a] * mu1[b] * mu1[cc])
                kirk[a, b, v] = p[a, b, v] * acc
    return {"conditional": cond, "kirkwood": kirk}
