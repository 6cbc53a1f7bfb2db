import logging
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coevnet import _pool, compare
from coevnet.compare import (
    polarized_link_config,
    run_comparison,
    run_epsilon_sweep,
)
from coevnet.errors import IntegrationError, ModelError
from coevnet.microsim import (
    AgentConfiguration,
    _run_legs,
    integrate_micro,
    integrate_reduced,
    solve_weight_nullcline,
)
from coevnet.models import MinimalParams, SmoothModel, catalog
from coevnet.moments import minimal_moments


class TestGenerator:
    def test_exact_counts(self):
        rng = np.random.default_rng(0)
        N = 40
        cfg = polarized_link_config(N, rho_p=0.5, p_pp=0.5, p_mm=0.25, p_pm=0.1, rng=rng)
        assert int(np.sum(cfg.states == 1)) == 20
        mom = minimal_moments(cfg)
        # exact expected moments: round(p * pairs) links per type
        denom = N * (N - 1)
        assert mom.f_pp == pytest.approx(2 * round(0.5 * 190) / denom, abs=1e-15)
        assert mom.f_mm == pytest.approx(2 * round(0.25 * 190) / denom, abs=1e-15)
        assert mom.f_pm == pytest.approx(round(0.1 * 400) / denom, abs=1e-15)

    def test_reproducible_moments_across_draws(self):
        m1 = minimal_moments(polarized_link_config(30, 0.4, 0.3, 0.3, 0.2,
                                                   np.random.default_rng(1)))
        m2 = minimal_moments(polarized_link_config(30, 0.4, 0.3, 0.3, 0.2,
                                                   np.random.default_rng(2)))
        assert np.array_equal(m1.as_array(), m2.as_array())

    @staticmethod
    def listed_pairs_config(N, rho_p, p_pp, p_mm, p_pm, rng):
        """The generator by listing every pair of a type before the draw."""
        n_plus = int(round(N * rho_p))
        states = np.full(N, -1, dtype=np.int8)
        states[rng.permutation(N)[:n_plus]] = 1
        plus_idx = np.nonzero(states == 1)[0]
        minus_idx = np.nonzero(states == -1)[0]
        W = np.zeros((N, N), dtype=np.int8)

        def place(members_a, members_b, prob, same):
            if same:
                ii, jj = np.triu_indices(len(members_a), 1)
                pairs_i, pairs_j = members_a[ii], members_a[jj]
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
        return states, W

    @pytest.mark.parametrize("N", [2, 3, 10, 37, 400])
    def test_decoded_placement_equals_listing_every_pair(self, N):
        # rho_p 0 and 1 leave a type empty; N = 2 and 3 give one-member
        # types (no pairs); 1 / N gives one plus agent at every N
        for rho_p in (0.0, 0.5, 1.0, 1.0 / N):
            for p in (0.0, 0.3, 1.0):
                for k, (p_pp, p_mm, p_pm) in enumerate([(p, p, p), (p, 1 - p, 0.5 * p)]):
                    seed = (N, int(10 * rho_p), int(10 * p), k)
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    cfg = polarized_link_config(N, rho_p, p_pp, p_mm, p_pm, rng)
                    states, W = self.listed_pairs_config(N, rho_p, p_pp, p_mm, p_pm, ref_rng)
                    assert np.array_equal(cfg.states, states)
                    assert np.array_equal(cfg.weights, W)
                    assert rng.bit_generator.state == ref_rng.bit_generator.state


class FailingPool(_pool.ProcessPoolExecutor):
    def submit(self, *args, **kwargs):
        raise BrokenProcessPool("pool broke")


class TestRunComparison:
    P_FROZEN = MinimalParams()
    P_EQUAL = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=0.5, beta_mm=0.5,
                            beta_pm=0.2, gamma_pp=0.5, gamma_mm=0.5, gamma_pm=1.0)

    def test_zero_rates_zero_errors(self):
        rep = run_comparison(self.P_FROZEN, N=20, runs=3, T=1.0, dt=0.25, seed=0)
        assert rep.sup_error_conditional == 0.0
        assert rep.sup_error_kirkwood == 0.0
        # identical replicas: stderr is pure summation roundoff
        assert rep.monte_carlo_stderr <= 1e-16

    def test_error_zero_at_t0(self):
        rep = run_comparison(self.P_EQUAL, N=30, runs=4, T=1.0, dt=0.25, seed=1)
        assert np.all(rep.err_conditional[0] == 0.0)
        assert np.all(rep.err_kirkwood[0] == 0.0)

    def test_rho_error_within_stderr_for_equal_alpha(self):
        # a one-stderr band holds for roughly a third of seeds by
        # construction; the seed is frozen on a passing draw
        rep = run_comparison(self.P_EQUAL, N=100, runs=16, T=1.0, dt=0.25, seed=3)
        rho_closure = rep.closure_conditional[:, 0] + rep.closure_conditional[:, 1] \
            + rep.closure_conditional[:, 4] + rep.closure_conditional[:, 5]
        gap = np.abs(rep.mean_rho_p - rho_closure)
        assert np.all(gap <= np.maximum(rep.stderr_rho_p, 1e-12) + 1e-12)

    def test_determinism(self):
        a = run_comparison(self.P_EQUAL, N=20, runs=3, T=0.5, dt=0.25, seed=5)
        b = run_comparison(self.P_EQUAL, N=20, runs=3, T=0.5, dt=0.25, seed=5)
        assert np.array_equal(a.mean_moments, b.mean_moments)
        assert a.sup_error_conditional == b.sup_error_conditional

    def test_workers_match_serial(self):
        a = run_comparison(self.P_EQUAL, N=20, runs=4, T=0.5, dt=0.25, seed=9, workers=1)
        b = run_comparison(self.P_EQUAL, N=20, runs=4, T=0.5, dt=0.25, seed=9, workers=2)
        assert np.array_equal(a.mean_moments, b.mean_moments)

    def test_preconditions(self):
        with pytest.raises(ModelError):
            run_comparison(self.P_EQUAL, N=5, runs=3, T=1.0, dt=0.25, seed=0)
        with pytest.raises(ModelError):
            run_comparison(self.P_EQUAL, N=20, runs=1, T=1.0, dt=0.25, seed=0)

    def test_replica_error_propagates_from_the_pool(self, caplog):
        # rho_p is checked inside each replica: the error is raised once,
        # without a serial rerun of every replica
        with caplog.at_level(logging.WARNING, logger="coevnet._pool"):
            with pytest.raises(ModelError, match="rho_p"):
                run_comparison(self.P_EQUAL, N=20, runs=2, T=0.5, dt=0.25, seed=0,
                               init={"rho_p": 1.5}, workers=2)
        assert not caplog.records

    @pytest.mark.parametrize("target, name, value, warning", [
        (_pool, "ProcessPoolExecutor", FailingPool,
         "worker pool failed (pool broke); running the remaining replicas serially"),
        (_pool.multiprocessing, "get_all_start_methods", lambda: ["spawn"],
         "no fork start method; running the 4 replicas serially"),
    ], ids=["pool-fails-on-submit", "no-fork"])
    def test_replicas_run_serially_when_the_pool_cannot(self, caplog, monkeypatch, target, name,
                                                        value, warning):
        a = run_comparison(self.P_EQUAL, N=20, runs=4, T=0.5, dt=0.25, seed=9, workers=1)
        monkeypatch.setattr(target, name, value)
        with caplog.at_level(logging.WARNING, logger="coevnet._pool"):
            b = run_comparison(self.P_EQUAL, N=20, runs=4, T=0.5, dt=0.25, seed=9, workers=2)
        assert np.array_equal(a.mean_moments, b.mean_moments)
        assert [r.message for r in caplog.records] == [warning]

    def test_sample_count_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(compare, "sample_times", lambda T, dt: np.zeros(1))
        with pytest.raises(IntegrationError):
            run_comparison(self.P_EQUAL, N=20, runs=2, T=0.5, dt=0.25, seed=0)

    @pytest.mark.parametrize("T, last", [(2.0 - 5e-10, 2.0 - 5e-10), (2.0 + 5e-10, 2.0)])
    def test_a_horizon_on_the_grid_to_rounding_samples_the_grid_once(self, T, last):
        # T within grid_steps' tolerance of 2.0: no extra sample at T, and
        # none past it that the replicas would not record
        rep = run_comparison(self.P_EQUAL, N=20, runs=2, T=T, dt=0.5, seed=0)
        assert rep.times.tolist() == [0.0, 0.5, 1.0, 1.5, last]
        assert rep.mean_moments.shape == rep.err_conditional.shape == (5, 6)

    def test_json_dict_fields(self):
        rep = run_comparison(self.P_EQUAL, N=20, runs=2, T=0.5, dt=0.25, seed=3)
        d = rep.to_json_dict()
        for key in ("params", "N", "runs", "sup_error_conditional",
                    "sup_error_kirkwood", "monte_carlo_stderr"):
            assert key in d

    def test_stderr_shrinks_with_run_count(self):
        # nested run counts: the standard error of the mean follows the
        # 1/sqrt(runs) law as a trend
        stderrs = []
        for runs in (5, 20, 80):
            rep = run_comparison(self.P_EQUAL, N=40, runs=runs, T=0.5, dt=0.25,
                                 seed=21)
            stderrs.append(rep.monte_carlo_stderr)
        assert stderrs[0] > stderrs[1] > stderrs[2]
        # quadrupling runs should roughly halve the stderr
        assert stderrs[2] < 0.5 * stderrs[0]


def relaxation_model():
    return catalog("kernel-relaxation", {
        "K": lambda x: x,
        "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)),
        "kappa": 1.0,
    })


class TestEpsilonSweep:
    def test_invariant_manifold_gap_zero(self):
        # constant eta: omega is state-independent, weights start on the
        # nullcline and never leave it; micro equals reduced exactly
        model = catalog("kernel-relaxation", {
            "K": lambda x: x,
            "eta": lambda x: np.ones(np.asarray(x).shape[:-1]),
            "kappa": 1.0,
        })
        states = np.array([[0.0], [1.0], [2.0]])
        w = np.ones((3, 3))
        np.fill_diagonal(w, 0.0)
        cfg = AgentConfiguration(states=states, weights=w)
        rep = run_epsilon_sweep(model, cfg, eps_list=[1.0], dt=1e-3, T=0.5)
        assert rep.gaps[0] <= 1e-13

    def test_zero_horizon_returns_initial_gap(self):
        model = relaxation_model()
        states = np.array([[0.0], [1.0]])
        w = np.zeros((2, 2))
        cfg = AgentConfiguration(states=states, weights=w)
        rep = run_epsilon_sweep(model, cfg, eps_list=[0.1, 0.01], dt=1e-3, T=0.0)
        assert rep.gaps[0] == rep.gaps[1] == 0.0

    def test_boschi_gaps_shrink_towards_the_limit_with_its_external_force(self):
        # boschi has U0 = -s; a limit without it leaves gaps near 0.68 that grow
        model = catalog("boschi", {"g": np.tanh, "J0": 2.0, "gamma": 1.0})
        states = np.array([[0.0], [0.7], [1.5], [-0.6]])
        w = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                w[i, j] = w[j, i] = solve_weight_nullcline(model, states[i], states[j]) + 0.5
        rep = run_epsilon_sweep(model, AgentConfiguration(states=states, weights=w),
                                eps_list=[0.1, 0.01, 0.001], dt=1e-3, T=0.5)
        assert rep.gaps[0] > rep.gaps[1] > rep.gaps[2]
        assert rep.monotone

    @pytest.mark.parametrize("dt, reduced_dt, name", [
        (1e-3, 0.3, "reduced_dt"), (0.3, None, "dt"), (0.3, 1e-3, "dt")])
    def test_horizon_off_either_grid_raises(self, monkeypatch, dt, reduced_dt, name):
        # with reduced_dt 0.3 the target would be taken at t = 0.6, not at T = 0.5
        def never(*args, **kwargs):
            raise AssertionError("an off-grid sweep must not integrate")
        monkeypatch.setattr(compare, "integrate_reduced", never)
        monkeypatch.setattr(compare, "_run_legs", never)
        cfg = AgentConfiguration(states=[[0.0], [1.0]], weights=np.zeros((2, 2)))
        with pytest.raises(ModelError, match=f"^T must be a multiple of {name}$"):
            run_epsilon_sweep(relaxation_model(), cfg, eps_list=[0.1], dt=dt, T=0.5,
                              reduced_dt=reduced_dt)

    @settings(max_examples=40)
    @given(N=st.integers(2, 6),
           eps=st.lists(st.sampled_from([0.5, 0.1, 0.02, 0.005]), min_size=1, max_size=4),
           steps=st.integers(0, 12), seed=st.integers(0, 2 ** 16), symmetric=st.booleans())
    @example(N=3, eps=[0.02, 0.5, 0.02], steps=0, seed=1, symmetric=True)
    def test_stacked_legs_equal_legs_run_one_by_one(self, N, eps, steps, seed, symmetric):
        rng = np.random.default_rng(seed)
        model = relaxation_model()
        w = rng.uniform(0.0, 1.0, size=(N, N))
        if symmetric:
            w = np.triu(w, 1) + np.triu(w, 1).T
        np.fill_diagonal(w, 0.0)
        cfg = AgentConfiguration(states=rng.uniform(-1.0, 1.5, size=(N, 1)), weights=w,
                                 symmetric=symmetric)
        dt, T = 1e-2, steps * 1e-2
        stacked = _run_legs(cfg, model, dt, T, eps)
        rep = run_epsilon_sweep(model, cfg, eps_list=eps, dt=dt, T=T)
        target = integrate_reduced(cfg.states, model, dt=dt, T=T).final()
        assert stacked.shape == (len(eps), N, 1)
        for leg, e in enumerate(eps):
            alone = integrate_micro(cfg, model, dt=dt, T=T, eps_w=e, store=False).final()
            assert stacked[leg].tobytes() == alone.states.tobytes()
            assert rep.gaps[leg] == float(np.max(np.abs(alone.states - target)))

    def test_empty_eps_list_integrates_nothing(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an empty sweep must not integrate")
        monkeypatch.setattr(compare, "integrate_reduced", never)
        monkeypatch.setattr(compare, "_run_legs", never)
        cfg = AgentConfiguration(states=[[0.0], [1.0]], weights=np.zeros((2, 2)))
        rep = run_epsilon_sweep(relaxation_model(), cfg, eps_list=[], dt=1e-3, T=1.0)
        assert (rep.eps, rep.gaps, rep.monotone) == ([], [], True)

    def test_overflowing_force_names_the_step_and_the_failed_legs(self):
        # RK4 at dt * kappa / eps = 100 is unstable: the eps = 1e-4 legs
        # overflow, the eps = 0.1 leg does not
        states = np.array([[0.0], [0.7], [1.5], [-0.6]])
        model = relaxation_model()
        w = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                w[i, j] = w[j, i] = solve_weight_nullcline(model, states[i], states[j]) + 0.5
        cfg = AgentConfiguration(states=states, weights=w)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as alone:
                integrate_micro(cfg, model, dt=1e-2, T=2.0, eps_w=1e-4)
            assert str(alone.value) == "non-finite force evaluation at t=0.05"
            with pytest.raises(IntegrationError, match=r"^non-finite force evaluation at "
                               r"t=0\.05 for eps=0\.0001$"):
                run_epsilon_sweep(model, cfg, eps_list=[0.1, 1e-4], dt=1e-2, T=2.0)
            with pytest.raises(IntegrationError, match=r"^non-finite force evaluation at "
                               r"t=0\.05 for eps=0\.0001, 0\.0001$"):
                run_epsilon_sweep(model, cfg, eps_list=[1e-4, 0.1, 1e-4], dt=1e-2, T=2.0)

    def test_overflowing_state_names_the_step_and_the_failed_leg(self):
        # |V| <= 1e300 stays finite, but V / eps overflows the weights of the
        # eps = 1e-10 leg in its first step; the eps = 1 leg stays finite
        model = SmoothModel(U=lambda s, sig, w: np.zeros(np.shape(s)),
                            V=lambda s, sig, w: 1e300 * np.tanh(1.0 - np.asarray(w)),
                            symmetric_V=True)
        cfg = AgentConfiguration(states=[[0.0], [1.0], [2.0]], weights=np.zeros((3, 3)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationError,
                              match=r"^non-finite state in the step from t=0 for eps=1e-10$"):
            run_epsilon_sweep(model, cfg, eps_list=[1.0, 1e-10], dt=1e-3, T=0.01)
