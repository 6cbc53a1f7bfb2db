import numpy as np
import pytest

from coevnet.characteristics import (
    CharacteristicEnsemble,
    integrate_characteristics_conditional,
    integrate_characteristics_wc,
    make_wc_ensemble,
    pair_energy_dissipation,
    pushforward_eval,
    uniform_masses,
)
from coevnet.errors import InvariantViolation, ModelError
from coevnet.models import PotentialModel, SmoothModel, catalog, quadratic_potential


def null_model():
    return SmoothModel(
        U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
        V=lambda s, sig, w: -np.asarray(w, dtype=float),
        symmetric_V=True,
    )


def linear_attraction():
    # U = w (sigma - s), V = 0
    return SmoothModel(
        U=lambda s, sig, w: np.asarray(w, dtype=float)[..., None] * (np.asarray(sig, dtype=float) - s),
        V=lambda s, sig, w: np.zeros(np.shape(w)),
        symmetric_V=True,
    )


def random_ensemble(M, rng, w_scale=1.0):
    anchors = rng.uniform(-1, 1, size=(M, 1))
    W = rng.uniform(0, w_scale, size=(M, M))
    W = np.triu(W, 1)
    W = W + W.T
    return CharacteristicEnsemble(anchors=anchors, pair_weights=W, masses=uniform_masses(M))


class TestFlow:
    def test_frozen_anchors_with_null_force(self):
        ens = random_ensemble(4, np.random.default_rng(0))
        traj = integrate_characteristics_conditional(ens, null_model(), dt=0.01, T=1.0)
        final = traj.final()
        assert np.array_equal(final.anchors, ens.anchors)
        # each weight decays as w0 e^{-t}
        assert np.allclose(final.pair_weights, ens.pair_weights * np.exp(-1.0), atol=1e-8)

    def test_consensus_fixed_point(self):
        # all anchors equal; eta == kappa * w0 keeps every weight at w0
        w0 = 0.7
        kappa = 1.3
        model = catalog("kernel-relaxation", {
            "K": lambda x: x,
            "eta": lambda x: np.full(np.asarray(x).shape[:-1], kappa * w0),
            "kappa": kappa,
        })
        anchors = np.full((5, 1), 0.4)
        W = np.full((5, 5), w0)
        np.fill_diagonal(W, 0.0)
        ens = CharacteristicEnsemble(anchors=anchors, pair_weights=W,
                                     masses=uniform_masses(5))
        traj = integrate_characteristics_conditional(ens, model, dt=0.01, T=1.0)
        assert np.array_equal(traj.final().anchors, anchors)
        assert np.allclose(traj.final().pair_weights, W, atol=1e-12)

    def test_two_anchor_linear_consensus(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        ens = CharacteristicEnsemble(anchors=np.array([[0.0], [2.0]]),
                                     pair_weights=W, masses=uniform_masses(2))
        traj = integrate_characteristics_conditional(ens, linear_attraction(), dt=1e-3, T=1.0)
        assert traj.final().anchors[0, 0] == pytest.approx(1 - np.exp(-1.0), abs=1e-8)

    def test_two_anchor_consensus_with_unequal_masses(self):
        # dS_0/dt = 0.75 (S_1 - S_0), dS_1/dt = 0.25 (S_0 - S_1): the gap decays
        # as e^{-t} about the conserved mass-weighted mean 1.5
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        ens = CharacteristicEnsemble(anchors=np.array([[0.0], [2.0]]),
                                     pair_weights=W, masses=np.array([0.25, 0.75]))
        traj = integrate_characteristics_conditional(ens, linear_attraction(), dt=1e-3, T=1.0)
        assert traj.final().anchors[:, 0] == pytest.approx(
            [1.5 - 1.5 * np.exp(-1.0), 1.5 + 0.5 * np.exp(-1.0)], abs=1e-8)

    def test_conditional_weight_decay(self):
        ens = CharacteristicEnsemble(anchors=np.array([[0.0], [1.0]]),
                                     pair_weights=np.array([[0.0, 3.0], [3.0, 0.0]]),
                                     masses=uniform_masses(2))
        traj = integrate_characteristics_conditional(ens, null_model(), dt=1e-3, T=1.0)
        assert traj.final().pair_weights[0, 1] == pytest.approx(3 * np.exp(-1.0), abs=1e-8)

    def test_wc_requires_consistent_initialization(self):
        model = linear_attraction()
        ens = random_ensemble(3, np.random.default_rng(1))
        with pytest.raises(ModelError):
            integrate_characteristics_wc(ens, model, W0=lambda s, sig: np.ones(np.asarray(s).shape[:-1]),
                                         dt=0.01, T=0.1)

    def test_weight_concentration_embeds_in_conditional(self):
        model = catalog("kernel-relaxation", {
            "K": lambda x: x,
            "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)),
            "kappa": 1.0,
        })
        rng = np.random.default_rng(2)
        anchors = rng.uniform(-1, 1, size=(10, 1))
        W0 = lambda s, sig: np.exp(-np.sum((np.asarray(s) - sig) ** 2, axis=-1))
        ens = make_wc_ensemble(anchors, W0)
        t_wc = integrate_characteristics_wc(ens, model, W0, dt=1e-2, T=5.0, sample_stride=50)
        t_cond = integrate_characteristics_conditional(ens, model, dt=1e-2, T=5.0, sample_stride=50)
        gap_s = max(np.max(np.abs(a.anchors - b.anchors))
                    for a, b in zip(t_wc.ensembles, t_cond.ensembles))
        gap_w = max(np.max(np.abs(a.pair_weights - b.pair_weights))
                    for a, b in zip(t_wc.ensembles, t_cond.ensembles))
        assert gap_s <= 1e-12
        assert gap_w <= 1e-12

    def test_external_force_drives_the_anchors(self):
        # U = V = 0 and U0(s) = -s: each anchor decays as S(0) e^{-t}
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.zeros(np.shape(w)),
            U0=lambda s: -np.asarray(s, dtype=float),
            symmetric_V=True,
        )
        ens = random_ensemble(5, np.random.default_rng(6))
        traj = integrate_characteristics_conditional(ens, model, dt=1e-2, T=1.0)
        for e in traj.ensembles:
            assert np.allclose(e.anchors, ens.anchors * np.exp(-e.t), rtol=0.0, atol=1e-10)
        assert np.array_equal(traj.final().pair_weights, ens.pair_weights)

    def test_mass_weighted_mean_conserved_for_antisymmetric_force(self):
        rng = np.random.default_rng(3)
        ens = random_ensemble(8, rng)
        traj = integrate_characteristics_conditional(ens, linear_attraction(), dt=1e-3, T=1.0)
        mean0 = float(ens.masses @ ens.anchors[:, 0])
        meanT = float(ens.masses @ traj.final().anchors[:, 0])
        assert abs(meanT - mean0) <= 1e-10

    def test_min_distance_monitored(self):
        rng = np.random.default_rng(4)
        ens = random_ensemble(6, rng, w_scale=0.5)
        traj = integrate_characteristics_conditional(ens, linear_attraction(), dt=1e-2, T=1.0)
        assert len(traj.min_pair_distance) == len(traj.times)
        assert all(d > 0 for d in traj.min_pair_distance)


class TestPushforward:
    def setup_method(self):
        self.ens = CharacteristicEnsemble(
            anchors=np.array([[0.0], [2.0]]),
            pair_weights=np.array([[0.0, 3.0], [3.0, 0.0]]),
            masses=uniform_masses(2),
        )

    def test_normalization_constant(self):
        assert pushforward_eval(self.ens, lambda s: 1.0) == pytest.approx(1.0)
        pair_total = pushforward_eval(self.ens, lambda s, sig, w: 1.0)
        assert pair_total == pytest.approx(0.5)   # sum_{i != j} m_i m_j

    def test_state_mean(self):
        assert pushforward_eval(self.ens, lambda s: float(s[0])) == pytest.approx(1.0)

    def test_pair_weight_observable(self):
        plain = pushforward_eval(self.ens, lambda s, sig, w: w)
        assert plain == pytest.approx(3.0 * 0.5)
        normalized = pushforward_eval(self.ens, lambda s, sig, w: w, normalize=True)
        assert normalized == pytest.approx(3.0)


class TestEnergyDissipation:
    def test_constant_potential(self):
        pot = PotentialModel(F=lambda s, sig, w: np.full(np.shape(w), 4.0), c=1.0)
        ens = CharacteristicEnsemble(anchors=np.array([[0.0], [1.0]]),
                                     pair_weights=np.zeros((2, 2)),
                                     masses=uniform_masses(2))
        energy, dissipation = pair_energy_dissipation(ens, pot)
        assert energy == pytest.approx(4.0 * 0.5)
        assert dissipation == pytest.approx(0.0, abs=1e-20)

    def test_dissipation_identity_along_flow(self):
        pot = quadratic_potential(kappa=1.0, c=1.0)
        model = catalog("quadratic-potential", {"kappa": 1.0, "c": 1.0})
        rng = np.random.default_rng(5)
        anchors = rng.uniform(-0.5, 0.5, size=(16, 1))
        W = rng.uniform(0, 0.3, size=(16, 16))
        W = np.triu(W, 1)
        W = W + W.T
        ens = CharacteristicEnsemble(anchors=anchors, pair_weights=W,
                                     masses=uniform_masses(16))
        dt = 1e-4
        traj = integrate_characteristics_conditional(ens, model, dt=dt, T=0.05)
        E = np.array([pair_energy_dissipation(e, pot)[0] for e in traj.ensembles])
        D = np.array([pair_energy_dissipation(e, pot)[1] for e in traj.ensembles])
        dEdt = (E[2:] - E[:-2]) / (2 * dt)
        rel = np.abs(dEdt + D[1:-1]) / np.maximum(np.abs(D[1:-1]), 1e-12)
        assert float(rel.max()) <= 1e-3
        assert np.all(E[1:] <= E[:-1] + 1e-9)

    def test_critical_point_is_stationary(self):
        pot = quadratic_potential(kappa=1.0, c=1.0)
        model = catalog("quadratic-potential", {"kappa": 1.0, "c": 1.0})
        anchors = np.full((4, 1), 0.3)
        ens = CharacteristicEnsemble(anchors=anchors, pair_weights=np.zeros((4, 4)),
                                     masses=uniform_masses(4))
        energy, dissipation = pair_energy_dissipation(ens, pot)
        assert dissipation == pytest.approx(0.0, abs=1e-20)
        traj = integrate_characteristics_conditional(ens, model, dt=1e-2, T=1.0)
        assert np.array_equal(traj.final().anchors, anchors)
        assert np.array_equal(traj.final().pair_weights, np.zeros((4, 4)))

    def test_refinement_trend(self):
        # nested anchor subsets: pushforward error of a smooth observable
        # shrinks like M^{-1/2}; averaged over replicas the doubling trend
        # is strictly decreasing
        exact = 1.0 / 3.0
        sizes = (64, 128, 256, 512)
        errs = np.zeros(len(sizes))
        n_rep = 50
        for rep in range(n_rep):
            base = np.random.default_rng(1000 + rep).uniform(0, 1, size=(512, 1))
            for k, M in enumerate(sizes):
                ens = CharacteristicEnsemble(anchors=base[:M],
                                             pair_weights=np.zeros((M, M)),
                                             masses=uniform_masses(M))
                val = pushforward_eval(ens, lambda s: float(s[0] ** 2))
                errs[k] += abs(val - exact) / n_rep
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestValidation:
    def test_bad_masses(self):
        with pytest.raises(InvariantViolation):
            CharacteristicEnsemble(anchors=np.zeros((2, 1)),
                                   pair_weights=np.zeros((2, 2)),
                                   masses=np.array([0.4, 0.4]))

    def test_nonzero_diagonal(self):
        with pytest.raises(InvariantViolation):
            CharacteristicEnsemble(anchors=np.zeros((2, 1)),
                                   pair_weights=np.eye(2),
                                   masses=uniform_masses(2))
