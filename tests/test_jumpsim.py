import numpy as np
import pytest

from coevnet.errors import IntegrationError, InvariantViolation, ModelError
from coevnet.jumpsim import (
    DiscreteConfiguration,
    HybridConfiguration,
    apply_voter_event,
    minimal_rates,
    simulate_hybrid_bc,
    simulate_minimal,
    simulate_voter,
)
from coevnet.models import MinimalParams


def disc(states, weights):
    return DiscreteConfiguration(states=np.asarray(states, dtype=np.int8),
                                 weights=np.asarray(weights, dtype=np.int8))


def complete_graph(N):
    W = np.ones((N, N), dtype=np.int8)
    np.fill_diagonal(W, 0)
    return W


def check_valid(cfg: DiscreteConfiguration):
    assert np.all(np.isin(cfg.states, (-1, 1)))
    assert np.all(np.isin(cfg.weights, (0, 1)))
    assert np.all(np.diagonal(cfg.weights) == 0)
    assert np.array_equal(cfg.weights, cfg.weights.T)


class TestMinimalRates:
    def test_no_links_no_flips(self):
        cfg = disc([1, 1, -1], np.zeros((3, 3)))
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=2, beta_mm=3, beta_pm=4)
        table = minimal_rates(cfg, p)
        assert np.all(table.flip_rates == 0.0)
        assert np.all(table.remove_rates == 0.0)
        assert table.create_rates[0, 1] == 2.0   # (+,+)
        assert table.create_rates[0, 2] == 4.0   # (+,-)
        assert table.create_rates[1, 2] == 4.0

    def test_single_contact_flip_rate(self):
        cfg = disc([1, -1], [[0, 1], [1, 0]])
        p = MinimalParams(alpha_pm=2.0)
        table = minimal_rates(cfg, p)
        assert table.flip_rates[0] == pytest.approx(1.0)   # (1/2) * 2
        assert table.flip_rates[1] == pytest.approx(0.0)   # alpha_mp = 0

    def test_pair_enumeration(self):
        cfg = disc([1, 1, -1], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        p = MinimalParams(beta_pp=1, beta_mm=2, beta_pm=3,
                          gamma_pp=4, gamma_mm=5, gamma_pm=6)
        table = minimal_rates(cfg, p)
        # removal only on linked (1,2) via gamma_pp and (2,3) via gamma_pm
        assert table.remove_rates[0, 1] == 4.0
        assert table.remove_rates[1, 2] == 6.0
        assert table.remove_rates[0, 2] == 0.0
        # creation only on unlinked (1,3) via beta_pm
        assert table.create_rates[0, 2] == 3.0
        assert table.create_rates[0, 1] == 0.0
        assert table.create_rates[1, 2] == 0.0


class TestSimulateMinimal:
    def test_zero_rates_are_absorbing(self):
        cfg = disc([1, -1, 1], np.zeros((3, 3)))
        traj = simulate_minimal(cfg, MinimalParams(), T=5.0, seed=0)
        assert traj.times[-1] == 5.0
        for c in traj.configs:
            assert np.array_equal(c.states, cfg.states)
            assert np.array_equal(c.weights, cfg.weights)

    def test_single_removal_clock_is_exponential(self):
        # only gamma_pm = 1: removal time of the single cross link ~ Exp(1)
        cfg = disc([1, -1], [[0, 1], [1, 0]])
        p = MinimalParams(gamma_pm=1.0)
        times = []
        for seed in range(10_000):
            traj = simulate_minimal(cfg, p, T=50.0, seed=seed, record_events=True)
            assert len(traj.events) == 1
            times.append(traj.events[0][0])
        assert np.mean(times) == pytest.approx(1.0, abs=0.03)

    def test_polarized_state_with_no_cross_creation_is_frozen(self):
        # no cross links and beta_pm = 0: contagion never starts
        W = np.zeros((6, 6), dtype=np.int8)
        W[0, 1] = W[1, 0] = 1
        W[3, 4] = W[4, 3] = 1
        cfg = disc([1, 1, 1, -1, -1, -1], W)
        p = MinimalParams(alpha_pm=5.0, alpha_mp=5.0, beta_pm=0.0)
        traj = simulate_minimal(cfg, p, T=10.0, seed=3, sample_dt=1.0)
        for c in traj.configs:
            assert np.array_equal(c.states, cfg.states)

    def test_gillespie_event_count_matches_analytics(self):
        # single (+,+) pair toggling: rates 2 (create) / 3 (remove) from w=0.
        # E[#events in (0, T)] = 2.4 T - 0.08 (1 - exp(-5T)).
        cfg = disc([1, 1], np.zeros((2, 2)))
        p = MinimalParams(beta_pp=2.0, gamma_pp=3.0)
        T = 10.0
        counts = []
        for seed in range(4000):
            traj = simulate_minimal(cfg, p, T=T, seed=seed, record_events=True,
                                    record_configs=False)
            counts.append(len(traj.events))
        expected = 2.4 * T - 0.08 * (1 - np.exp(-5 * T))
        stderr = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) <= 3 * stderr

    def test_magnetization_balance_with_equal_alpha(self):
        rng = np.random.default_rng(0)
        N = 40
        W = (rng.random((N, N)) < 0.3).astype(np.int8)
        W = np.triu(W, 1)
        W = W + W.T
        states = np.where(rng.random(N) < 0.5, 1, -1)
        cfg = DiscreteConfiguration(states=states, weights=W)
        p = MinimalParams(alpha_pm=1.5, alpha_mp=1.5, beta_pp=0.3, beta_mm=0.3,
                          beta_pm=0.3, gamma_pp=0.3, gamma_mm=0.3, gamma_pm=0.3)
        rho0 = np.mean(states == 1)
        finals = []
        for seed in range(200):
            traj = simulate_minimal(cfg, p, T=2.0, seed=seed, record_configs=True)
            finals.append(np.mean(traj.final().states == 1))
        stderr = np.std(finals) / np.sqrt(len(finals))
        assert abs(np.mean(finals) - rho0) <= 3 * max(stderr, 1e-4)

    def test_trajectory_preserves_invariants(self):
        rng = np.random.default_rng(5)
        N = 12
        W = (rng.random((N, N)) < 0.4).astype(np.int8)
        W = np.triu(W, 1)
        W = W + W.T
        states = np.where(rng.random(N) < 0.6, 1, -1)
        cfg = DiscreteConfiguration(states=states, weights=W)
        p = MinimalParams(1, 0.5, 1, 1, 0.5, 1, 1, 2)
        traj = simulate_minimal(cfg, p, T=3.0, seed=9, sample_dt=0.5)
        for c in traj.configs:
            check_valid(c)

    def test_moment_recording_matches_estimator(self):
        from coevnet.moments import minimal_moments
        rng = np.random.default_rng(2)
        N = 10
        W = (rng.random((N, N)) < 0.5).astype(np.int8)
        W = np.triu(W, 1)
        W = W + W.T
        states = np.where(rng.random(N) < 0.5, 1, -1)
        cfg = DiscreteConfiguration(states=states, weights=W)
        p = MinimalParams(1, 1, 1, 1, 1, 1, 1, 1)
        traj = simulate_minimal(cfg, p, T=1.0, seed=4, sample_dt=0.25, record_configs=True)
        assert traj.moments is not None
        for k, c in enumerate(traj.configs):
            m = minimal_moments(c)
            assert np.allclose(traj.moments[k], m.as_array(), atol=1e-15)

    def test_determinism(self):
        cfg = disc([1, 1, -1, -1], np.zeros((4, 4)))
        p = MinimalParams(1, 1, 1, 1, 1, 1, 1, 1)
        a = simulate_minimal(cfg, p, T=2.0, seed=42, sample_dt=0.5)
        b = simulate_minimal(cfg, p, T=2.0, seed=42, sample_dt=0.5)
        for ca, cb in zip(a.configs, b.configs):
            assert np.array_equal(ca.states, cb.states)
            assert np.array_equal(ca.weights, cb.weights)


@pytest.mark.parametrize("sample_dt", [0.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("simulator", ["minimal", "voter"])
def test_a_bad_sample_dt_is_refused(simulator, sample_dt):
    cfg = disc([1, -1, 1, -1], complete_graph(4))
    with pytest.raises(ModelError, match="sample_dt must be positive and finite"):
        if simulator == "minimal":
            simulate_minimal(cfg, MinimalParams(alpha_pm=1, alpha_mp=1), T=1.0, seed=0,
                             sample_dt=sample_dt)
        else:
            simulate_voter(cfg, prob_p=0.5, prob_q=0.5, T=1.0, seed=0, sample_dt=sample_dt)


class TestVoter:
    def test_p_zero_keeps_weights_constant(self):
        rng = np.random.default_rng(1)
        N = 20
        W = (rng.random((N, N)) < 0.3).astype(np.int8)
        W = np.triu(W, 1)
        W = W + W.T
        states = np.where(rng.random(N) < 0.5, 1, -1)
        cfg = DiscreteConfiguration(states=states, weights=W)
        traj = simulate_voter(cfg, prob_p=0.0, prob_q=0.5, T=5.0, seed=3, sample_dt=1.0)
        for c in traj.configs:
            assert np.array_equal(c.weights, W)

    def test_p_one_original_keeps_states_constant(self):
        rng = np.random.default_rng(2)
        N = 20
        W = (rng.random((N, N)) < 0.4).astype(np.int8)
        W = np.triu(W, 1)
        W = W + W.T
        states = np.where(rng.random(N) < 0.5, 1, -1)
        cfg = DiscreteConfiguration(states=states, weights=W)
        traj = simulate_voter(cfg, prob_p=1.0, prob_q=0.0, T=5.0, seed=8,
                              variant="original", sample_dt=1.0)
        for c in traj.configs:
            assert np.array_equal(c.states, states)

    def test_original_rewire_with_no_candidate_removes_only(self):
        # N=3 complete, s = (+, +, -): agent 3 picks agent 1, p = 1.
        # No unlinked same-state node exists for agent 3: removal only.
        states = np.array([1, 1, -1], dtype=np.int8)
        weights = complete_graph(3)
        rng = np.random.default_rng(0)
        evt = apply_voter_event(states, weights, 2, 0, rng, p=1.0, q=0.0, variant="original")
        assert evt == ("remove", 2, 0)
        assert weights[2, 0] == 0 and weights[0, 2] == 0
        assert weights[2, 1] == 1   # other link untouched
        assert np.array_equal(states, [1, 1, -1])

    def test_pq_variant_toggles_neighbor_link(self):
        states = np.array([1, -1], dtype=np.int8)
        weights = complete_graph(2)
        rng = np.random.default_rng(0)
        evt = apply_voter_event(states, weights, 0, 1, rng, p=1.0, q=1.0, variant="pq")
        assert evt == ("remove", 0, 1)
        assert weights[0, 1] == 0

    def test_pq_variant_links_new_node(self):
        states = np.array([1, -1, -1], dtype=np.int8)
        weights = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.int8)
        rng = np.random.default_rng(0)
        evt = apply_voter_event(states, weights, 0, 1, rng, p=1.0, q=0.0, variant="pq")
        assert evt == ("create", 0, 2)
        assert weights[0, 2] == 1 and weights[2, 0] == 1
        assert weights[0, 1] == 1   # inspected link kept in the (1-q) branch

    def test_trajectory_invariants(self):
        rng = np.random.default_rng(7)
        N = 15
        W = (rng.random((N, N)) < 0.3).astype(np.int8)
        W = np.triu(W, 1)
        W = W + W.T
        states = np.where(rng.random(N) < 0.5, 1, -1)
        cfg = DiscreteConfiguration(states=states, weights=W)
        for variant in ("pq", "original"):
            traj = simulate_voter(cfg, 0.4, 0.6, T=4.0, seed=11, variant=variant, sample_dt=1.0)
            for c in traj.configs:
                check_valid(c)


class TestHybridBC:
    def test_no_links_no_motion(self):
        cfg = HybridConfiguration(states=np.array([[0.0], [1.0], [2.0]]),
                                  weights=np.zeros((3, 3), dtype=np.int8))
        traj = simulate_hybrid_bc(cfg, F=lambda s: s, r=lambda d: np.zeros_like(d),
                                  tau=0.1, dt=0.01, T=1.0, seed=0)
        assert np.array_equal(traj.final().states, cfg.states)
        assert np.all(traj.final().weights == 0)

    def test_frozen_complete_graph_consensus(self):
        # F identity, links frozen (tau huge, so jump rates ~ 0):
        # s1' = (s2 - s1)/2, s1(t) = 1 - e^{-t}
        cfg = HybridConfiguration(states=np.array([[0.0], [2.0]]),
                                  weights=complete_graph(2))
        traj = simulate_hybrid_bc(cfg, F=lambda s: s,
                                  r=lambda d: np.ones_like(d),
                                  tau=1e12, dt=1e-3, T=1.0, seed=0)
        assert traj.final().states[0, 0] == pytest.approx(1 - np.exp(-1.0), abs=1e-6)

    def test_fast_relaxation_reaches_confidence_graph(self):
        rng = np.random.default_rng(12)
        N = 16
        states = rng.uniform(0.0, 3.0, size=(N, 1))
        cfg = HybridConfiguration(states=states, weights=np.zeros((N, N), dtype=np.int8))
        r = lambda d: (np.asarray(d) < 1.0).astype(float)
        traj = simulate_hybrid_bc(cfg, F=lambda s: s, r=r, tau=1e-3, dt=1e-4,
                                  T=1.0, seed=5, sample_stride=1000)
        final = traj.final()
        diff = final.states[:, None, :] - final.states[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        expect = (dist < 1.0).astype(np.int8)
        iu = np.triu_indices(N, 1)
        agreement = np.mean(final.weights[iu] == expect[iu])
        assert agreement >= 0.99

    def test_grid_starts_at_the_configuration_time(self):
        cfg = HybridConfiguration(states=np.array([[0.0], [1.0]]), weights=complete_graph(2),
                                  t=5.0)
        traj = simulate_hybrid_bc(cfg, F=lambda s: s, r=lambda d: np.ones_like(d),
                                  tau=1.0, dt=0.25, T=0.5, seed=0)
        assert traj.times == [5.0, 5.25, 5.5]
        assert [c.t for c in traj.configs] == traj.times

    def test_non_finite_state_raises(self):
        cfg = HybridConfiguration(states=np.array([[0.0], [1.0]]), weights=complete_graph(2))
        with np.errstate(invalid="ignore"), \
                pytest.raises(IntegrationError, match="non-finite state in the step from t=0$"):
            simulate_hybrid_bc(cfg, F=lambda s: np.full(np.shape(s), np.inf),
                               r=lambda d: np.ones_like(d), tau=1.0, dt=0.1, T=1.0, seed=0)

    def test_dt_above_tau_warns(self):
        cfg = HybridConfiguration(states=np.array([[0.0], [1.0]]),
                                  weights=np.zeros((2, 2), dtype=np.int8))
        with pytest.warns(UserWarning):
            simulate_hybrid_bc(cfg, F=lambda s: s, r=lambda d: np.zeros_like(d),
                               tau=0.01, dt=0.02, T=0.1, seed=0)


@pytest.mark.parametrize("T", [-1.0, np.nan])
def test_a_bad_horizon_is_refused(T):
    cfg = disc([1, -1, 1], complete_graph(3))
    with pytest.raises(ModelError, match="T must be nonnegative"):
        simulate_minimal(cfg, MinimalParams(alpha_pm=1.0, gamma_pm=1.0), T=T, seed=0)
    with pytest.raises(ModelError, match="T must be nonnegative"):
        simulate_voter(cfg, 0.5, 0.5, T=T, seed=0)


class TestConfigValidation:
    def test_bad_state_values(self):
        with pytest.raises(InvariantViolation):
            DiscreteConfiguration(states=np.array([1, 2]), weights=np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [1.9, -1.2])
    def test_state_values_are_checked_before_the_cast(self, value):
        with pytest.raises(InvariantViolation, match="states must be -1 or \\+1"):
            DiscreteConfiguration(states=np.array([1.0, value]), weights=np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [0.5, 1.9, 257.0, 257, -255, np.nan])
    @pytest.mark.parametrize("kind", ["discrete", "hybrid"])
    def test_weight_values_are_checked_before_the_cast(self, kind, value):
        W = np.array([[0, value], [value, 0]])
        with pytest.raises(InvariantViolation, match="weights must be 0 or 1"):
            if kind == "discrete":
                DiscreteConfiguration(states=np.array([1, -1]), weights=W)
            else:
                HybridConfiguration(states=np.array([0.0, 1.0]), weights=W)

    def test_exact_values_of_any_dtype_are_accepted(self):
        for W in (np.array([[0, 1], [1, 0]], dtype=bool), np.array([[0.0, 1.0], [1.0, 0.0]])):
            cfg = DiscreteConfiguration(states=np.array([1.0, -1.0]), weights=W)
            assert cfg.states.dtype == cfg.weights.dtype == np.int8
            assert cfg.weights.tolist() == [[0, 1], [1, 0]]
            hyb = HybridConfiguration(states=np.array([0.0, 1.0]), weights=W)
            assert hyb.weights.dtype == np.int8

    def test_inputs_are_copied(self):
        states, W = np.array([1, -1], dtype=np.int8), np.array([[0, 1], [1, 0]], dtype=np.int8)
        cfg = DiscreteConfiguration(states=states, weights=W)
        states[0], W[0, 1] = -1, 0
        assert cfg.states.tolist() == [1, -1] and cfg.weights[0, 1] == 1

    def test_asymmetric_weights(self):
        with pytest.raises(InvariantViolation):
            DiscreteConfiguration(states=np.array([1, -1]),
                                  weights=np.array([[0, 1], [0, 0]]))
