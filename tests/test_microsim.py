import numpy as np
import pytest

from coevnet import microsim
from coevnet.characteristics import CharacteristicEnsemble, pair_energy_dissipation, uniform_masses
from coevnet.compare import run_epsilon_sweep
from coevnet.errors import IntegrationError, InvariantViolation, ModelError, NullclineNotFound
from coevnet.microsim import (
    AgentConfiguration,
    energy_report,
    integrate_micro,
    integrate_reduced,
    _nullcline_array,
    micro_rhs,
    simulate_diffusive,
    solve_weight_nullcline,
)
from coevnet.models import PotentialModel, SmoothModel, catalog, derive_forces, quadratic_potential
from coevnet.stepping import rk4_step, rkf45_advance


def null_model(m=1):
    return SmoothModel(
        U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
        V=lambda s, sig, w: np.zeros(np.shape(w)),
        m=m,
        symmetric_V=True,
    )


def attraction_model():
    # U = w (sigma - s), V = 0
    return SmoothModel(
        U=lambda s, sig, w: np.asarray(w, dtype=float)[..., None] * (np.asarray(sig, dtype=float) - s),
        V=lambda s, sig, w: np.zeros(np.shape(w)),
        symmetric_V=True,
    )


def weight_decay_model():
    return SmoothModel(
        U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
        V=lambda s, sig, w: -np.asarray(w, dtype=float),
        symmetric_V=True,
    )


def counting_V(model):
    """The model with a V that appends each call to the returned list."""
    calls = []

    def V(s, sig, w):
        calls.append(1)
        return model.V(s, sig, w)
    counted = SmoothModel(U=model.U, V=V, m=model.m, symmetric_V=model.symmetric_V)
    calls.clear()
    return counted, calls


def small_config(states, weights, symmetric=True):
    return AgentConfiguration(states=np.asarray(states, dtype=float),
                              weights=np.asarray(weights, dtype=float),
                              symmetric=symmetric)


def random_config(N, rng, scale=1.0, symmetric=True):
    states = rng.uniform(-1, 1, size=(N, 1))
    w = rng.uniform(0, scale, size=(N, N))
    w = np.triu(w, 1)
    w = w + w.T
    return AgentConfiguration(states=states, weights=w, symmetric=symmetric)


class TestMicroRhs:
    def test_null_forces(self):
        cfg = small_config([[0.0], [1.0]], [[0, 1], [1, 0]])
        ds, dw = micro_rhs(cfg, null_model())
        assert np.all(ds == 0.0)
        assert np.all(dw == 0.0)

    def test_two_body_attraction(self):
        cfg = small_config([[0.0], [2.0]], [[0, 1], [1, 0]])
        ds, dw = micro_rhs(cfg, attraction_model())
        assert ds[0, 0] == pytest.approx(1.0)
        assert ds[1, 0] == pytest.approx(-1.0)
        assert np.all(dw == 0.0)

    def test_kernel_relaxation_zero_weights(self):
        model = catalog("kernel-relaxation", {
            "K": lambda x: x, "eta": lambda x: np.ones(np.asarray(x).shape[:-1]), "kappa": 1.0,
        })
        cfg = small_config([[0.0], [1.0], [2.0]], np.zeros((3, 3)))
        ds, dw = micro_rhs(cfg, model)
        assert np.all(ds == 0.0)
        off_diag = ~np.eye(3, dtype=bool)
        assert np.all(dw[off_diag] == 1.0)
        assert np.all(np.diag(dw) == 0.0)

    def test_eps_prefactors(self):
        cfg = small_config([[0.0], [2.0]], [[0, 1], [1, 0]])
        model = SmoothModel(
            U=lambda s, sig, w: np.asarray(w, dtype=float)[..., None] * (np.asarray(sig, dtype=float) - s),
            V=lambda s, sig, w: np.ones(np.shape(w)),
            symmetric_V=True,
        )
        ds, dw = micro_rhs(cfg, model, eps_w=0.5, eps_s=2.0)
        assert ds[0, 0] == pytest.approx(0.5)
        assert dw[0, 1] == pytest.approx(2.0)

    def test_nonfinite_forces_raise(self):
        # finite on the construction probe region (|w| <= 2), singular beyond
        bad = SmoothModel(
            U=lambda s, sig, w: np.where(np.abs(np.asarray(w))[..., None] > 10.0, np.inf, 0.0)
            + np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.zeros(np.shape(w)),
        )
        cfg = small_config([[0.0], [2.0]], [[0, 100.0], [100.0, 0]])
        with pytest.raises(IntegrationError):
            micro_rhs(cfg, bad)

    @pytest.mark.parametrize("N", [7, 200])
    def test_symmetric_weight_drift_is_the_mirrored_upper_triangle_bitwise(self, N):
        # V = -w exp(-|s - sigma|^2) is -0.0 wherever w is 0.0
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: -np.asarray(w, dtype=float)
            * np.exp(-np.sum(np.square(np.asarray(s, dtype=float) - sig), axis=-1)),
            symmetric_V=True,
        )
        rng = np.random.default_rng(N)
        cfg = random_config(N, rng)
        planted = np.triu(rng.random((N, N)) < 0.2, 1)
        cfg.weights[planted | planted.T] = 0.0
        V = model.V(cfg.states[:, None], cfg.states[None], cfg.weights)
        np.fill_diagonal(V, 0.0)
        assert np.signbit(V[planted]).all()
        upper = np.triu(V, 1)
        for eps_w in (1.0, 0.3):
            _, dw = micro_rhs(cfg, model, eps_w=eps_w)
            assert dw.tobytes() == ((upper + upper.T) / eps_w).tobytes()

    @pytest.mark.parametrize("masses, message", [
        ([1.0, 1.0, 1.0], "masses must have shape (2,), one per agent, got (3,)"),
        ([[0.5], [0.5]], "masses must have shape (2,), one per agent, got (2, 1)"),
        ([0.5, np.nan], "masses must be finite"),
        ([np.inf, 0.5], "masses must be finite"),
    ])
    def test_bad_masses_are_refused_when_the_flow_is_built(self, masses, message):
        cfg = small_config([[0.0], [2.0]], [[0, 1], [1, 0]])
        for run in (lambda: micro_rhs(cfg, attraction_model(), masses=np.array(masses)),
                    lambda: integrate_micro(cfg, attraction_model(), 0.1, 0.1,
                                            masses=np.array(masses))):
            with pytest.raises(ModelError) as err:
                run()
            assert str(err.value) == message


class TestShapeContract:
    def test_smaller_results_are_broadcast_to_the_pair_grid(self):
        # U and V depend on s only: the kernels return (..., N, 1, m) and (..., N, 1)
        model = SmoothModel(U=lambda s, sig, w: np.full(np.shape(s), 0.5),
                            V=lambda s, sig, w: -np.ones(np.shape(s)[:-1]), symmetric_V=True)
        cfg = small_config([[0.0], [1.0], [3.0]], np.zeros((3, 3)))
        ds, dw = micro_rhs(cfg, model, eps_w=0.5)
        assert np.array_equal(ds, np.full((3, 1), 0.5 * 2 / 3))
        assert np.array_equal(dw, np.where(np.eye(3, dtype=bool), 0.0, -2.0))
        traj = integrate_micro(cfg, model, dt=0.1, T=0.2)
        assert traj.final().weights[0, 1] == pytest.approx(-0.2, abs=1e-15)

    def test_zeros_shaped_like_s_still_run(self):
        model = SmoothModel(U=lambda s, sig, w: np.zeros(np.shape(s)),
                            V=lambda s, sig, w: np.zeros(np.shape(s)[:-1]), symmetric_V=True)
        cfg = random_config(4, np.random.default_rng(1))
        final = integrate_micro(cfg, model, dt=0.1, T=0.3).final()
        assert np.array_equal(final.states, cfg.states)
        assert np.array_equal(final.weights, cfg.weights)
        rep = run_epsilon_sweep(model, cfg, eps_list=[0.1, 0.01], dt=0.1, T=0.3)
        assert rep.gaps == [0.0, 0.0]

    @pytest.mark.parametrize("name", ["U", "V"])
    def test_result_that_does_not_broadcast_raises_model_error(self, name):
        # right on the construction probes, (N*N, ...) instead of (1, N, N, ...) on the grid
        flat = {"U": lambda s, sig, w: np.zeros((np.size(w), 1)),
                "V": lambda s, sig, w: np.zeros(np.size(w))}
        kernels = {"U": null_model().U, "V": null_model().V, name: flat[name]}
        model = SmoothModel(U=kernels["U"], V=kernels["V"], symmetric_V=True)
        cfg = small_config([[0.0], [1.0]], [[0, 1], [1, 0]])
        grid = "(1, 2, 2, 1)" if name == "U" else "(1, 2, 2)"
        shape = "(4, 1)" if name == "U" else "(4,)"
        message = f"{name} returned shape {shape}, which does not broadcast to the pair grid {grid}"
        for run in (lambda: micro_rhs(cfg, model), lambda: integrate_micro(cfg, model, 0.1, 0.1)):
            with pytest.raises(ModelError) as err:
                run()
            assert str(err.value) == message

    def test_a_kernel_result_that_is_its_weight_argument_is_copied(self):
        # V returns the caller's w, a view of the integrator's state: mirroring
        # the weight drift must not write into it
        grow = SmoothModel(U=null_model().U, V=lambda s, sig, w: w, symmetric_V=True)
        fresh = SmoothModel(U=null_model().U, V=lambda s, sig, w: np.array(w), symmetric_V=True)
        cfg = random_config(5, np.random.default_rng(3))
        got = integrate_micro(cfg, grow, dt=0.1, T=0.3).final().weights
        assert np.array_equal(got, integrate_micro(cfg, fresh, dt=0.1, T=0.3).final().weights)
        assert np.allclose(got, cfg.weights * np.exp(0.3), rtol=1e-5)

    def test_finite_difference_potentials_run_on_the_pair_views(self):
        exact = quadratic_potential(kappa=1.0, c=1.0)
        fd = PotentialModel(F=exact.F, c=1.0)   # no closed-form derivatives
        cfg = random_config(5, np.random.default_rng(4), scale=0.5)
        got = integrate_micro(cfg, derive_forces(fd), dt=1e-2, T=0.1).final()
        want = integrate_micro(cfg, derive_forces(exact), dt=1e-2, T=0.1).final()
        assert np.allclose(got.states, want.states, rtol=0, atol=1e-9)
        assert np.allclose(got.weights, want.weights, rtol=0, atol=1e-9)
        assert energy_report(cfg, fd).dissipation == pytest.approx(
            energy_report(cfg, exact).dissipation, rel=1e-8)


class TestIntegrateMicro:
    def test_zero_horizon(self):
        cfg = small_config([[0.0], [1.0]], np.zeros((2, 2)))
        traj = integrate_micro(cfg, null_model(), dt=0.1, T=0.0)
        assert len(traj.configs) == 1
        assert traj.configs[0] is not None
        assert traj.times == [0.0]

    def test_exponential_weight_decay(self):
        cfg = small_config([[0.0], [1.0]], [[0, 1], [1, 0]])
        traj = integrate_micro(cfg, weight_decay_model(), dt=0.01, T=1.0)
        w_final = traj.final().weights[0, 1]
        assert w_final == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_symmetry_preserved_bitwise(self):
        model = catalog("kernel-relaxation", {
            "K": lambda x: x, "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)), "kappa": 1.0,
        })
        rng = np.random.default_rng(42)
        cfg = random_config(10, rng)
        traj = integrate_micro(cfg, model, dt=0.01, T=0.5)
        for c in traj.configs:
            assert np.max(np.abs(c.weights - c.weights.T)) == 0.0

    def test_euler_first_order(self):
        cfg = small_config([[0.0], [1.0]], [[0, 1], [1, 0]])
        traj = integrate_micro(cfg, weight_decay_model(), dt=0.001, T=1.0, method="euler")
        assert traj.final().weights[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-3)

    def test_rkf45_matches_exact(self):
        cfg = small_config([[0.0], [1.0]], [[0, 1], [1, 0]])
        traj = integrate_micro(cfg, weight_decay_model(), dt=0.25, T=1.0, method="rkf45")
        assert traj.final().weights[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_rkf45_step_missing_tolerance_at_minimum_step_raises(self):
        # the error estimate of this stiff RHS stays far above 0 down to h = 1e-14 * span
        with pytest.raises(IntegrationError, match="missed its tolerance"):
            rkf45_advance(lambda y: 1e20 * np.sin(y), np.array([0.5, 1.0]), 0.5,
                          atol=0.0, rtol=0.0)

    def test_rkf45_tolerance_failure_aborts_the_trajectory(self):
        model = SmoothModel(
            U=lambda s, sig, w: 1e20 * np.sin(np.asarray(sig, dtype=float) - s),
            V=lambda s, sig, w: np.zeros(np.shape(w)),
            symmetric_V=True,
        )
        cfg = small_config([[0.0], [1.0]], [[0, 1.0], [1.0, 0]])
        with pytest.raises(IntegrationError, match="missed its tolerance"):
            integrate_micro(cfg, model, dt=0.1, T=0.3, method="rkf45")

    def test_rkf45_tolerance_failure_names_the_step_it_starts_from(self):
        # both agents drift at rate 1 under U0; U switches on, stiff, once a
        # state passes 0.15, which the agent from 0 does at t = 0.15
        model = SmoothModel(
            U=lambda s, sig, w: np.where(np.asarray(s) > 0.15,
                                         1e20 * np.sin(np.asarray(sig, dtype=float) - s), 0.0),
            V=lambda s, sig, w: np.zeros(np.shape(w)),
            U0=lambda s: np.ones_like(s),
            symmetric_V=True,
        )
        cfg = small_config([[-0.5], [0.0]], [[0, 1.0], [1.0, 0]])
        with pytest.raises(IntegrationError,
                           match=r"missed its tolerance in the step from t=0\.1 "):
            integrate_micro(cfg, model, dt=0.1, T=0.5, method="rkf45")

    def test_abort_on_blowup(self):
        # dw/dt = w^2 from w close to the blowup time: finite-time escape in
        # the step from t = 0.03, the last finite sample
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.square(np.asarray(w, dtype=float)),
            symmetric_V=True,
        )
        cfg = small_config([[0.0], [1.0]], [[0, 100.0], [100.0, 0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationError, match=r"non-finite force evaluation at t=0\.03$"):
            integrate_micro(cfg, model, dt=0.01, T=2.0)

    def test_dimension_mismatch_rejected(self):
        cfg = small_config([[0.0], [1.0]], np.zeros((2, 2)))
        with pytest.raises(ModelError):
            integrate_micro(cfg, null_model(m=2), dt=0.1, T=0.1)


class TestDiffusive:
    def test_zero_diffusion_matches_euler(self):
        model = SmoothModel(
            U=lambda s, sig, w: np.asarray(w, dtype=float)[..., None] * (np.asarray(sig, dtype=float) - s),
            V=lambda s, sig, w: -np.asarray(w, dtype=float),
            Q=lambda s: np.zeros(np.asarray(s).shape[:-1]),
            symmetric_V=True,
        )
        cfg = small_config([[0.0], [2.0]], [[0, 1], [1, 0]])
        t_sde = simulate_diffusive(cfg, model, dt=0.01, T=0.5, seed=1)
        t_det = integrate_micro(cfg, model, dt=0.01, T=0.5, method="euler")
        assert np.allclose(t_sde.final().states, t_det.final().states, atol=1e-14)
        assert np.allclose(t_sde.final().weights, t_det.final().weights, atol=1e-14)

    def test_boschi_weights_stay_nonnegative(self):
        model = catalog("boschi", {
            "g": lambda x: 1.0 / (1.0 + np.exp(-x)), "J0": 2.0, "gamma": 1.0, "sigma_noise": 0.4,
        })
        for seed in range(100):
            rng = np.random.default_rng(seed)
            N = 8
            w = rng.uniform(0, 1, size=(N, N))
            w = np.triu(w, 1)
            w = w + w.T
            cfg = AgentConfiguration(states=rng.normal(0, 1, size=(N, 1)), weights=w)
            traj = simulate_diffusive(cfg, model, dt=0.01, T=0.5, seed=seed)
            min_w = min(float(c.weights.min()) for c in traj.configs)
            assert min_w >= -1e-12

    def test_brownian_variance_growth(self):
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.zeros(np.shape(w)),
            Q=lambda s: np.full(np.asarray(s).shape[:-1], 0.5),
            symmetric_V=True,
        )
        N = 500
        cfg = AgentConfiguration(states=np.zeros((N, 1)), weights=np.zeros((N, N)))
        traj = simulate_diffusive(cfg, model, dt=0.01, T=1.0, seed=7)
        growth = float(np.var(traj.final().states))
        assert growth == pytest.approx(1.0, abs=0.15)

    def test_missing_q_rejected(self):
        cfg = small_config([[0.0], [1.0]], np.zeros((2, 2)))
        with pytest.raises(ModelError):
            simulate_diffusive(cfg, null_model(), dt=0.01, T=0.1, seed=0)

    def test_nonzero_weight_noise_rejected(self):
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.zeros(np.shape(w)),
            Q=lambda s: np.full(np.asarray(s).shape[:-1], 0.5),
            R=lambda s, sig, w: np.full(np.shape(w), 0.1),
            symmetric_V=True,
        )
        cfg = small_config([[0.0], [1.0]], np.zeros((2, 2)))
        with pytest.raises(ModelError, match="coefficient R must be zero"):
            simulate_diffusive(cfg, model, dt=0.01, T=0.1, seed=0)

    def test_deterministic_for_fixed_seed(self):
        model = catalog("boschi", {
            "g": lambda x: 1.0 / (1.0 + np.exp(-x)), "J0": 2.0, "gamma": 1.0, "sigma_noise": 0.3,
        })
        rng = np.random.default_rng(3)
        cfg = random_config(6, rng)
        a = simulate_diffusive(cfg, model, dt=0.01, T=0.3, seed=11).final()
        b = simulate_diffusive(cfg, model, dt=0.01, T=0.3, seed=11).final()
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.weights, b.weights)


class TestEnergy:
    def test_zero_potential(self):
        from coevnet.models import PotentialModel
        pot = PotentialModel(F=lambda s, sig, w: np.zeros(np.shape(w)), c=1.0)
        cfg = small_config([[0.0], [1.0]], [[0, 1], [1, 0]])
        rep = energy_report(cfg, pot)
        assert rep.energy == 0.0
        assert rep.dissipation >= 0.0
        assert rep.dissipation == pytest.approx(0.0, abs=1e-18)

    def test_hand_evaluated_energy(self):
        # F = w (s - sigma)^2 + w^2/2, s = (0, 1), w12 = w21 = 2:
        # E = (1/4) * 2 * (2*1 + 2) = 2
        pot = quadratic_potential(kappa=1.0, c=1.0)
        cfg = small_config([[0.0], [1.0]], [[0, 2.0], [2.0, 0]])
        rep = energy_report(cfg, pot)
        assert rep.energy == pytest.approx(2.0)

    def test_gradient_flow_identity_along_trajectory(self):
        pot = quadratic_potential(kappa=1.0, c=1.0)
        model = catalog("quadratic-potential", {"kappa": 1.0, "c": 1.0})
        rng = np.random.default_rng(2)
        cfg = random_config(8, rng, scale=0.5)
        reports = []
        integrate_micro(cfg, model, dt=1e-3, T=0.1, store=False,
                        callback=lambda c: reports.append(energy_report(c, pot)))
        E = np.array([r.energy for r in reports])
        D = np.array([r.dissipation for r in reports])
        dEdt = (E[2:] - E[:-2]) / (2e-3)
        mid = D[1:-1]
        rel = np.abs(dEdt + mid) / np.maximum(1e-12, np.abs(mid))
        assert float(rel.max()) < 1e-5

    def test_energy_monotone_for_potential_models(self):
        # Tight initial data: the flow's energy is unbounded below, so wide
        # configurations escape in finite time; this checks monotone descent
        # on the resolved horizon.
        pot = quadratic_potential(kappa=1.0, c=1.0)
        model = catalog("quadratic-potential", {"kappa": 1.0, "c": 1.0})
        rng = np.random.default_rng(9)
        states = rng.uniform(-0.4, 0.4, size=(16, 1))
        w = np.triu(rng.uniform(0, 0.3, size=(16, 16)), 1)
        cfg = AgentConfiguration(states=states, weights=w + w.T)
        energies = []
        integrate_micro(cfg, model, dt=1e-2, T=1.0, store=False,
                        callback=lambda c: energies.append(energy_report(c, pot).energy))
        E = np.array(energies)
        assert np.all(np.isfinite(E))
        assert np.all(E[1:] <= E[:-1] + 1e-9)

    @pytest.mark.parametrize("report", [
        lambda states, W, pot: energy_report(AgentConfiguration(states, W), pot),
        lambda states, W, pot: pair_energy_dissipation(
            CharacteristicEnsemble(states, W, uniform_masses(len(states))), pot),
    ], ids=["energy_report", "pair_energy_dissipation"])
    def test_an_overflowing_potential_raises(self, report):
        # F = w exp(|s - sigma|^2) overflows on the pair (0, 30)
        def grow(s, sig):
            return np.exp(np.sum(np.square(np.asarray(s) - sig), axis=-1))
        pot = PotentialModel(F=lambda s, sig, w: np.asarray(w) * grow(s, sig),
                             grad_s=lambda s, sig, w: (2.0 * np.asarray(w) * grow(s, sig))[..., None]
                             * (np.asarray(s) - sig),
                             d_w=lambda s, sig, w: grow(s, sig) + 0.0 * np.asarray(w))
        W = np.ones((3, 3)) - np.eye(3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationError, match="non-finite potential evaluation"):
            report(np.array([[0.0], [30.0], [1.0]]), W, pot)


class TestNullcline:
    def test_linear_relaxation(self):
        model = catalog("kernel-relaxation", {
            "K": lambda x: x, "eta": lambda x: np.ones(np.asarray(x).shape[:-1]), "kappa": 2.0,
        })
        w = solve_weight_nullcline(model, np.array([0.0]), np.array([0.0]))
        assert w == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("s, sigma", [([0.0, 1.0], [0.5]), ([0.0], []),
                                          (np.zeros((2, 1)), [0.3])])
    def test_a_state_of_the_wrong_length_names_m(self, s, sigma):
        with pytest.raises(ModelError, match=r"s and sigma must each hold the model's m=1 values"):
            solve_weight_nullcline(weight_decay_model(), s, sigma)

    def test_pure_decay(self):
        w = solve_weight_nullcline(weight_decay_model(), np.array([0.0]), np.array([1.0]))
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_no_root(self):
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.ones(np.shape(w)),
            symmetric_V=True,
        )
        with pytest.raises(NullclineNotFound):
            solve_weight_nullcline(model, np.array([0.0]), np.array([0.0]))

    @pytest.mark.parametrize("name, params, low, high, omega", [
        ("kernel-relaxation",
         {"K": lambda x: x, "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)), "kappa": 1.3},
         -1.0, 1.5, lambda s, t: np.exp(-np.sum((s - t) ** 2, axis=-1)) / 1.3),
        ("boschi", {"g": np.tanh, "J0": 2.0, "gamma": 0.8},
         -0.6, 0.6, lambda s, t: 2.0 * np.tanh(s[..., 0]) * np.tanh(t[..., 0])),
        ("quadratic-potential", {"kappa": 0.9, "c": 1.4},
         -0.35, 0.35, lambda s, t: -1.4 * np.sum((s - t) ** 2, axis=-1) / 0.9),
    ], ids=["kernel-relaxation", "boschi", "quadratic-potential"])
    def test_affine_V_solves_in_few_calls_to_the_closed_form(self, name, params, low, high, omega):
        # states in [low, high] keep every root inside the first bracket [-1, 1]
        model, calls = counting_V(catalog(name, params))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(low, high, size=(7, 1))
            si, sj = x[:, None], x[None]
            calls.clear()
            w = _nullcline_array(model, si, sj)
            assert len(calls) <= 8
            ref = omega(si, sj)
            assert np.all(np.abs(w - ref) <= 2 * np.spacing(np.abs(ref)))

    def test_nonlinear_V_converges(self):
        model, calls = counting_V(SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.exp(-np.sum(np.square(np.asarray(s, dtype=float) - sig), axis=-1))
            - w - w ** 3,
            symmetric_V=True,
        ))
        x = np.random.default_rng(5).uniform(-1.0, 1.5, size=(7, 1))
        si, sj = x[:, None], x[None]
        w = _nullcline_array(model, si, sj)
        assert np.max(np.abs(model.V(si, sj, w))) <= 1e-12
        assert len(calls) < 20

    def test_root_on_a_bracket_endpoint(self):
        for root in (1.0, -1.0, 4.0):
            model, calls = counting_V(SmoothModel(
                U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
                V=lambda s, sig, w, r=root: r - np.asarray(w, dtype=float),
                symmetric_V=True,
            ))
            calls.clear()
            assert solve_weight_nullcline(model, np.array([0.0]), np.array([0.3])) == root
            assert len(calls) == (2 if abs(root) == 1.0 else 4)

    def test_root_beyond_the_first_bracket(self):
        model = catalog("kernel-relaxation", {
            "K": lambda x: x, "eta": lambda x: np.full(np.asarray(x).shape[:-1], 50.0), "kappa": 1.0,
        })
        w = solve_weight_nullcline(model, np.array([0.2]), np.array([-0.4]))
        assert abs(w - 50.0) <= 2 * np.spacing(50.0)

    def test_the_search_reaches_the_bracket_it_names(self):
        # the bracket grows by 4 up to 4**10 = 1048576: a root at 1.02e6 is found
        # and no root names the last half-width tried
        def affine(root):
            return SmoothModel(U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
                               V=lambda s, sig, w: np.asarray(
                                   root - np.asarray(w, dtype=float) if root else np.ones(np.shape(w))),
                               symmetric_V=True)
        assert solve_weight_nullcline(affine(1.02e6), np.array([0.0]), np.array([0.0])) == 1.02e6
        with pytest.raises(NullclineNotFound, match=r"no sign change in \|w\| <= 1\.04858e\+06 "):
            solve_weight_nullcline(affine(None), np.array([0.0]), np.array([0.0]))

    def test_infinite_endpoint_value_bisects(self):
        # V is +inf at the lower end of the grown bracket [-16, 16]
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.where(np.asarray(w) < -3.0, np.inf,
                                         10.0 - np.asarray(w, dtype=float)),
            symmetric_V=True,
        )
        assert solve_weight_nullcline(model, np.array([0.0]), np.array([0.0])) == 10.0

    def test_sign_change_without_a_root(self):
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.where(np.asarray(w) < 0.3, 1.0, -1.0),
            symmetric_V=True,
        )
        with pytest.raises(NullclineNotFound, match="residual"):
            solve_weight_nullcline(model, np.array([0.0]), np.array([0.0]))

    def test_nan_is_not_a_root(self):
        # finite on the construction probes (|w| <= 2); NaN at the grown bracket [-4, 4]
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: np.where(np.abs(np.asarray(w)) > 3.0, np.nan,
                                         10.0 - np.asarray(w, dtype=float)),
            symmetric_V=True,
        )
        with np.errstate(invalid="ignore"), pytest.raises(NullclineNotFound):
            solve_weight_nullcline(model, np.array([0.0]), np.array([0.0]))

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(microsim, "_NULLCLINE_MAX_STEPS", 1)
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: 0.5 - w - w ** 3,
            symmetric_V=True,
        )
        with pytest.raises(NullclineNotFound, match="did not converge"):
            solve_weight_nullcline(model, np.array([0.0]), np.array([0.0]))


class TestReduced:
    def test_constant_states_with_null_force(self):
        model = SmoothModel(
            U=lambda s, sig, w: np.zeros(np.asarray(s, dtype=float).shape),
            V=lambda s, sig, w: -np.asarray(w, dtype=float),
            symmetric_V=True,
        )
        traj = integrate_reduced(np.array([[0.0], [1.0]]), model, dt=0.01, T=0.5)
        assert np.array_equal(traj.final(), np.array([[0.0], [1.0]]))

    def test_two_body_consensus(self):
        # omega == 1, U = -w(s - sigma): s1' = (1/2)(s2 - s1), s1(t) = 1 - e^{-t}
        model = catalog("kernel-relaxation", {
            "K": lambda x: x, "eta": lambda x: np.ones(np.asarray(x).shape[:-1]), "kappa": 1.0,
        })
        traj = integrate_reduced(np.array([[0.0], [2.0]]), model, dt=1e-3, T=1.0)
        assert traj.final()[0, 0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-8)

    def test_micro_converges_to_reduced_as_eps_shrinks(self):
        model = catalog("kernel-relaxation", {
            "K": lambda x: x, "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)), "kappa": 1.0,
        })
        states = np.array([[0.0], [0.7], [1.5], [-0.6]])
        N = states.shape[0]
        si = np.broadcast_to(states[:, None, :], (N, N, 1))
        sj = np.broadcast_to(states[None, :, :], (N, N, 1))
        w0 = _nullcline_array(model, si, sj)
        np.fill_diagonal(w0, 0.0)
        # the stacked legs equal legs run one by one (test_compare), so one sweep
        # gives the gaps of three integrate_micro runs
        gaps = run_epsilon_sweep(model, AgentConfiguration(states=states, weights=w0),
                                 eps_list=[0.1, 0.01, 0.001], dt=1e-4, T=1.0,
                                 reduced_dt=1e-3).gaps
        assert gaps[0] > gaps[1] > gaps[2]

    def test_external_force_is_part_of_the_reduced_flow(self):
        # U = 0 and U0(s) = -s: the limit is ds/dt = -s whatever the weights
        model = SmoothModel(U=lambda s, sig, w: np.zeros(np.shape(s)),
                            V=lambda s, sig, w: -np.asarray(w, dtype=float),
                            U0=lambda s: -np.asarray(s, dtype=float), symmetric_V=True)
        s0 = np.array([[0.5], [-1.0], [2.0]])
        final = integrate_reduced(s0, model, dt=1e-3, T=1.0).final()
        assert np.max(np.abs(final - s0 * np.exp(-1.0))) <= 1e-10

    def test_overflowing_force_names_the_step(self):
        # U0 = 1 carries the second agent to s = 2, where U = exp(1000 (s - 2)) overflows
        model = SmoothModel(U=lambda s, sig, w: np.exp(1000.0 * (np.asarray(s, dtype=float) - 2.0)),
                            V=lambda s, sig, w: -np.asarray(w, dtype=float),
                            U0=lambda s: np.ones(np.shape(s)), symmetric_V=True)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationError, match=r"^non-finite force evaluation at t=1$"):
            integrate_reduced(np.array([[0.0], [1.0]]), model, dt=0.1, T=2.0)


class TestConfigurationInvariants:
    def test_diagonal_must_be_zero(self):
        with pytest.raises(InvariantViolation):
            AgentConfiguration(states=np.zeros((2, 1)), weights=np.array([[1.0, 0], [0, 0]]))

    def test_symmetry_flag_checked(self):
        with pytest.raises(InvariantViolation):
            AgentConfiguration(states=np.zeros((2, 1)),
                               weights=np.array([[0.0, 1.0], [0.5, 0.0]]), symmetric=True)

    def test_single_agent_rejected(self):
        with pytest.raises(InvariantViolation):
            AgentConfiguration(states=np.zeros((1, 1)), weights=np.zeros((1, 1)))

    def test_rk4_time_reversibility(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        f = lambda y: A @ y
        y0 = np.array([1.0, 0.3])
        y1 = rk4_step(f, y0, 0.01)
        y_back = rk4_step(f, y1, -0.01)
        assert np.max(np.abs(y_back - y0)) < 1e-10
