"""Particle-discretized method of characteristics for the mean-field
systems of weighted pair interactions.

An ensemble of M anchor states with masses summing to one carries an M x M
matrix of pairwise weights.  Anchors drift under the external force and the
mass-weighted interaction force, and each pairwise weight follows its own
weight ODE:

    dS_i/dt = U0(S_i) + sum_{j != i} mass_j U(S_i, S_j, W_ij)
    dW_ij/dt = V(S_i, S_j, W_ij)

This is the microscopic flow with the anchor masses in place of the equal
masses 1/N, and it is integrated as such: ``integrate_micro`` with
``masses`` (fixed-step RK4, eps_w = eps_s = 1).  The weight-concentration
solver initializes W from a weight surface W0(s, s') and the
conditional-distribution solver accepts free initial pair weights (each row
i is an empirical partner ensemble for anchor i).  Both share this single
flow, which is exactly why weight-concentrated data remain a special
solution of the conditional dynamics.

Injectivity of the anchor flow is monitored, not enforced: the minimum
pairwise anchor distance (over pairs distinct at t = 0) is recorded at each
sample and an exact collision raises IntegrationError.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import IntegrationError, InvariantViolation, ModelError
from .microsim import AgentConfiguration, _on_grid, _pair_potential, integrate_micro
from .models import PotentialModel, SmoothModel


@dataclass
class CharacteristicEnsemble:
    """M anchor states, anchor masses and the M x M pairwise weight matrix."""

    anchors: np.ndarray         # (M, m)
    pair_weights: np.ndarray    # (M, M), zero diagonal
    masses: np.ndarray          # (M,), nonnegative, sums to one
    t: float = 0.0

    def __post_init__(self):
        self.anchors = np.array(self.anchors, dtype=float)
        if self.anchors.ndim == 1:
            self.anchors = self.anchors[:, None]
        self.pair_weights = np.array(self.pair_weights, dtype=float)
        self.masses = np.array(self.masses, dtype=float)
        M = self.anchors.shape[0]
        if M < 2:
            raise InvariantViolation("need at least two anchors")
        if self.pair_weights.shape != (M, M):
            raise InvariantViolation("pair weight matrix shape mismatch")
        if self.masses.shape != (M,):
            raise InvariantViolation("mass vector shape mismatch")
        if np.any(self.masses < 0) or abs(self.masses.sum() - 1.0) > 1e-12:
            raise InvariantViolation("anchor masses must be nonnegative and sum to 1")
        if np.any(np.diagonal(self.pair_weights) != 0.0):
            raise InvariantViolation("pair weight diagonal must be zero")
        if not (np.all(np.isfinite(self.anchors)) and np.all(np.isfinite(self.pair_weights))):
            raise InvariantViolation("non-finite ensemble entries")

    @property
    def M(self) -> int:
        return self.anchors.shape[0]

    @property
    def m(self) -> int:
        return self.anchors.shape[1]


def uniform_masses(M: int) -> np.ndarray:
    return np.full(M, 1.0 / M)


def make_wc_ensemble(anchors, W0: Callable) -> CharacteristicEnsemble:
    """Build an equal-mass ensemble with pair weights slaved to the surface W0(s, s')."""
    anchors = np.array(anchors, dtype=float).reshape(len(anchors), -1)   # (M,) -> (M, 1)
    M = len(anchors)
    W = np.array(_on_grid(W0(anchors[:, None, :], anchors[None, :, :]), (M, M), "W0"), order="C")
    W.reshape(M * M)[::M + 1] = 0.0   # the diagonal
    return CharacteristicEnsemble(anchors=anchors, pair_weights=W, masses=uniform_masses(M))


@dataclass
class CharTrajectory:
    times: list[float] = field(default_factory=list)
    ensembles: list[CharacteristicEnsemble] = field(default_factory=list)
    min_pair_distance: list[float] = field(default_factory=list)

    def final(self) -> CharacteristicEnsemble:
        return self.ensembles[-1]


def _integrate_characteristics(ens0: CharacteristicEnsemble, model: SmoothModel,
                               dt: float, T: float, sample_stride: int = 1) -> CharTrajectory:
    if ens0.m != model.m:
        raise ModelError("ensemble and model dimensions differ")
    masses = ens0.masses

    diff0 = ens0.anchors[:, None, :] - ens0.anchors[None, :, :]
    dist0 = np.sqrt(np.sum(diff0 * diff0, axis=-1))
    distinct0 = np.triu(dist0 > 0.0, 1)
    monitor = bool(distinct0.any())

    def min_distance(anchors):
        if not monitor:
            return 0.0
        diff = anchors[:, None, :] - anchors[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        return float(dist[distinct0].min())

    traj = CharTrajectory()

    def record(c: AgentConfiguration) -> None:
        d = min_distance(c.states)
        traj.times.append(c.t)
        traj.ensembles.append(CharacteristicEnsemble(
            anchors=c.states, pair_weights=c.weights, masses=masses, t=c.t))
        traj.min_pair_distance.append(d)
        if monitor and d == 0.0:
            raise IntegrationError(
                f"anchor collision at t = {c.t:.6g}: characteristic flow lost injectivity")

    W = ens0.pair_weights
    cfg = AgentConfiguration(ens0.anchors, W, symmetric=np.array_equal(W, W.T), t=ens0.t)
    integrate_micro(cfg, model, dt, T, callback=record, store=False,
                    sample_stride=sample_stride, masses=masses)
    return traj


def integrate_characteristics_wc(
    ens0: CharacteristicEnsemble,
    model: SmoothModel,
    W0: Callable,
    dt: float,
    T: float,
    sample_stride: int = 1,
) -> CharTrajectory:
    """Characteristic flow of the weight-concentration mean field.

    Requires the initial pair weights to sit on the surface W0(anchor_i,
    anchor_j); the weight matrix then stays the characteristic trace of the
    transported surface.
    """
    if not np.array_equal(make_wc_ensemble(ens0.anchors, W0).pair_weights, ens0.pair_weights):
        raise ModelError("weight-concentration solver requires pair_weights = W0(anchors)")
    return _integrate_characteristics(ens0, model, dt, T, sample_stride)


def integrate_characteristics_conditional(
    ens0: CharacteristicEnsemble,
    model: SmoothModel,
    dt: float,
    T: float,
    sample_stride: int = 1,
) -> CharTrajectory:
    """Characteristic flow with free pairwise weights.

    Each anchor's drift averages the interaction force over its own partner
    samples with their individual weights; this is the particle form of the
    conditional-distribution pair closure.  Weight-concentrated initial data
    reproduce the wc solver exactly (same flow).
    """
    return _integrate_characteristics(ens0, model, dt, T, sample_stride)


def pushforward_eval(ens: CharacteristicEnsemble, phi: Callable,
                     normalize: bool = False) -> float:
    """Integrate an observable against the transported ensemble measure.

    Single-particle observables phi(s) evaluate to sum_i mass_i phi(S_i).
    Pair observables phi(s, s', w) (detected by arity) evaluate with plain
    product weights excluding the diagonal, sum_{i != j} mass_i mass_j phi;
    with ``normalize`` the pair form divides by sum_{i != j} mass_i mass_j
    (the pushforward mean).
    """
    n_args = len(inspect.signature(phi).parameters)
    M, m = ens.anchors.shape
    if n_args == 1:
        vals = np.asarray([float(np.asarray(phi(ens.anchors[i])).squeeze()) for i in range(M)])
        total = float(np.dot(ens.masses, vals))
        return total
    if n_args != 3:
        raise ModelError("observables take either (s) or (s, s', w)")
    mm = ens.masses[:, None] * ens.masses[None, :]
    np.fill_diagonal(mm, 0.0)
    acc = 0.0
    for i in range(M):
        for j in range(M):
            if i == j or mm[i, j] == 0.0:
                continue
            acc += mm[i, j] * float(np.asarray(
                phi(ens.anchors[i], ens.anchors[j], ens.pair_weights[i, j])).squeeze())
    if normalize:
        acc /= float(mm.sum())
    return acc


def pair_energy_dissipation(ens: CharacteristicEnsemble, pot: PotentialModel) -> tuple[float, float]:
    """Pair energy and dissipation of the ensemble under a pair potential.

    energy = sum_{i != j} mass_i mass_j F(S_i, S_j, W_ij); the dissipation is
    velocity-consistent with the characteristic flow of the potential forces,

        2 sum_i mass_i |sum_{j != i} mass_j grad_s F(S_i, S_j, W_ij)|^2
        + c sum_{i != j} mass_i mass_j (d_w F(S_i, S_j, W_ij))^2

    (the factor 2 collects the two symmetric state slots), so that
    dE/dt = -dissipation holds along conditional-closure characteristics.
    A non-finite off-diagonal F, grad_s F or d_w F raises IntegrationError.
    """
    if ens.m != pot.m:
        raise ModelError("ensemble and potential dimensions differ")
    F, gs, dw = _pair_potential(ens.anchors, ens.pair_weights, pot, "pair energy")
    masses = ens.masses
    mm = masses[:, None] * masses[None, :]
    np.fill_diagonal(mm, 0.0)
    energy = float(np.sum(mm * F))
    G = np.einsum("j,ijk->ik", masses, gs)
    state_term = 2.0 * float(np.dot(masses, np.sum(G * G, axis=1)))
    weight_term = pot.c * float(np.sum(mm * dw * dw))
    return energy, state_term + weight_term
