import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coevnet import _native, closures
from coevnet.characteristics import (
    CharacteristicEnsemble,
    integrate_characteristics_conditional,
    integrate_characteristics_wc,
    make_wc_ensemble,
    uniform_masses,
)
from coevnet.closures import ClosureKind, integrate_closure, stationary_polarized
from coevnet.compare import run_epsilon_sweep
from coevnet.errors import IntegrationError, ModelError
from coevnet.jumpsim import HybridConfiguration, simulate_hybrid_bc
from coevnet.microsim import (AgentConfiguration, integrate_micro, integrate_reduced,
                              simulate_diffusive)
from coevnet.models import MinimalParams, SmoothModel, catalog
from coevnet.stepping import grid_steps, run_grid, sample_times


class TestRunGrid:
    def test_grid_and_sampling_rule(self):
        steps, samples = [], []

        def step(y, t):
            steps.append(t)
            return y + 1.0

        run_grid(step, np.zeros(1), 0.5, 0.25, 1.75, 3,
                 lambda y, t: samples.append((t, float(y[0]))))
        assert steps == [0.5 + k * 0.25 for k in range(7)]
        assert samples == [(0.5, 0.0), (1.25, 3.0), (2.0, 6.0), (2.25, 7.0)]

    def test_non_finite_step_names_its_start_time(self):
        samples = []
        with pytest.raises(IntegrationError, match=r"in the step from t=0\.2$"):
            run_grid(lambda y, t: y * np.inf if t > 0.15 else y, np.ones(1), 0.0, 0.1, 1.0, 1,
                     lambda y, t: samples.append(t))
        assert samples == [0.0, 0.1, 0.2]

    def test_a_step_that_checks_finiteness_is_not_checked_again(self, monkeypatch):
        # the micro flow's step scans its result and names the failed legs;
        # run_grid then makes no second pass over the same state
        scans = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda y: scans.append(np.shape(y)) or isfinite(y))
        y = run_grid(lambda y, t: y * np.inf, np.ones(1), 0.0, 0.1, 0.3, 1, lambda y, t: None,
                     step_checks_finite=True)
        assert scans == [] and np.isinf(y).all()
        cfg = AgentConfiguration(states=[[0.0], [1.0]], weights=np.zeros((2, 2)))
        integrate_micro(cfg, catalog("quadratic-potential"), dt=0.1, T=0.3, store=False)
        # the compiled rk4 step scans its result in its final sum, in C
        compiled = _native.LIB is not None
        assert scans.count((1, 6)) == (0 if compiled else 3)
        # the numpy reference: one scan of the stacked state (one leg: 2
        # states, 4 weights) per step
        monkeypatch.setattr(_native, "LIB", None)
        integrate_micro(cfg, catalog("quadratic-potential"), dt=0.1, T=0.3, store=False)
        assert scans.count((1, 6)) == (3 if compiled else 6)

    @pytest.mark.parametrize("dt, T, stride, message", [
        (0.0, 1.0, 1, "dt must be positive"),
        (0.1, -1.0, 1, "T must be nonnegative"),
        (0.1, np.nan, 1, "T must be nonnegative"),
        (0.1, np.inf, 1, "T must be nonnegative"),
        (0.1, 1.0, 0, "sample_stride must be >= 1"),
        (0.4, 1.0, 1, "T must be a multiple of dt"),
    ])
    def test_bad_grid_rejected(self, dt, T, stride, message):
        with pytest.raises(ModelError, match=message):
            run_grid(lambda y, t: y, np.zeros(1), 0.0, dt, T, stride, lambda y, t: None)


@pytest.mark.parametrize("T", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("sample_dt", [None, 0.5])
def test_sample_times_refuse_a_bad_horizon(T, sample_dt):
    with pytest.raises(ModelError, match="T must be nonnegative"):
        sample_times(T, sample_dt)


@pytest.mark.parametrize("sample_dt", [0.0, -0.5, np.nan, np.inf, -np.inf])
def test_sample_times_refuse_a_bad_sample_dt(sample_dt):
    with pytest.raises(ModelError, match="sample_dt must be positive and finite"):
        sample_times(1.0, sample_dt)


@pytest.mark.parametrize("sample_dt", [1e-12, 1e-300])
def test_sample_times_refuse_a_grid_that_memory_cannot_hold(sample_dt):
    # 1e12 and 1e300 sample times: far past any machine's memory, so nothing is allocated
    with pytest.raises(ModelError, match=f"sample_dt={sample_dt:g} makes 1e\\+[0-9]+ sample "
                                         "times up to T=1.0, more than memory holds"):
        sample_times(1.0, sample_dt)


def counted_model(calls):
    """The quadratic-potential forces with a state noise Q; each kernel call
    after the model's construction is appended to calls."""
    base = catalog("quadratic-potential")

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    model = SmoothModel(U=counted("U", base.U), V=counted("V", base.V), symmetric_V=True,
                        Q=counted("Q", lambda s: np.full(np.shape(s)[:-1], 0.01)))
    calls.clear()
    return model


class TestGridRule:
    """T off the dt grid raises ModelError before a fixed-step run takes a step."""

    CFG = AgentConfiguration(states=[[0.0], [0.5], [1.0]], weights=0.2 * (1 - np.eye(3)))

    @pytest.mark.parametrize("dt", [0.6, 0.3])
    @pytest.mark.parametrize("loop", ["compiled", "python"])
    def test_closure(self, monkeypatch, loop, dt):
        ran = []
        if loop == "python":   # _integrate_loop runs its twin, _closure_loop_py
            monkeypatch.setattr(_native, "LIB", None)
        inner = closures._integrate_loop
        monkeypatch.setattr(closures, "_integrate_loop", lambda *a: ran.append(a) or inner(*a))
        p = MinimalParams(1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0)
        m0 = stationary_polarized(p, 0.6, 0.1)
        with pytest.raises(ModelError, match="^T must be a multiple of dt$"):
            integrate_closure(m0, p, ClosureKind.CONDITIONAL, dt=dt, T=1.0)
        assert ran == []
        assert integrate_closure(m0, p, ClosureKind.CONDITIONAL, dt=0.2, T=1.0).times[-1] == 1.0

    @pytest.mark.parametrize("method", ["rk4", "euler", "rkf45"])
    def test_micro(self, method):
        calls = []
        with pytest.raises(ModelError, match="^T must be a multiple of dt$"):
            integrate_micro(self.CFG, counted_model(calls), dt=0.4, T=1.0, method=method,
                            callback=calls.append)
        assert calls == []

    @pytest.mark.parametrize("run", ["diffusive", "reduced", "hybrid-bc", "wc", "conditional"])
    def test_other_fixed_step_runs(self, run):
        calls = []
        model = counted_model(calls)
        ens = make_wc_ensemble(self.CFG.states, lambda s, sig: np.zeros(np.shape(s)[:-1]))
        kernel = lambda x: calls.append("kernel") or np.asarray(x, dtype=float)
        start = {
            "diffusive": lambda: simulate_diffusive(self.CFG, model, dt=0.4, T=1.0, seed=0),
            "reduced": lambda: integrate_reduced(self.CFG.states, model, dt=0.4, T=1.0),
            "hybrid-bc": lambda: simulate_hybrid_bc(
                HybridConfiguration(states=self.CFG.states, weights=np.zeros((3, 3))),
                F=kernel, r=kernel, tau=1.0, dt=0.4, T=1.0, seed=0),
            "wc": lambda: integrate_characteristics_wc(
                ens, model, lambda s, sig: np.zeros(np.shape(s)[:-1]), dt=0.4, T=1.0),
            "conditional": lambda: integrate_characteristics_conditional(ens, model, dt=0.4, T=1.0),
        }[run]
        with pytest.raises(ModelError, match="^T must be a multiple of dt$"):
            start()
        assert calls == []

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    @pytest.mark.parametrize("run", ["rk4", "rkf45", "closure", "reduced", "characteristics",
                                     "sweep dt", "sweep reduced_dt"])
    def test_a_non_finite_dt_is_refused(self, run, dt):
        """inf would run no step yet claim to reach T, NaN fail in int()."""
        calls = []
        model = counted_model(calls)
        ens = make_wc_ensemble(self.CFG.states, lambda s, sig: np.zeros(np.shape(s)[:-1]))
        p = MinimalParams(1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0)
        start = {
            "rk4": lambda: integrate_micro(self.CFG, model, dt=dt, T=1.0, callback=calls.append),
            "rkf45": lambda: integrate_micro(self.CFG, model, dt=dt, T=1.0, method="rkf45",
                                             callback=calls.append),
            "closure": lambda: integrate_closure(stationary_polarized(p, 0.6, 0.1), p,
                                                 ClosureKind.CONDITIONAL, dt=dt, T=1.0),
            "reduced": lambda: integrate_reduced(self.CFG.states, model, dt=dt, T=1.0),
            "characteristics": lambda: integrate_characteristics_conditional(ens, model, dt=dt,
                                                                             T=1.0),
            "sweep dt": lambda: run_epsilon_sweep(model, self.CFG, [0.1], dt=dt, T=1.0),
            "sweep reduced_dt": lambda: run_epsilon_sweep(model, self.CFG, [0.1], dt=0.5, T=1.0,
                                                          reduced_dt=dt),
        }[run]
        with pytest.raises(ModelError, match="dt must be positive and finite"):
            start()
        assert calls == []

    def test_a_long_run_on_the_grid_is_not_refused(self):
        assert grid_steps(0.1, 3000.0, 1) == 30000
        p = MinimalParams(1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0)
        traj = integrate_closure(stationary_polarized(p, 0.6, 0.1), p, ClosureKind.CONDITIONAL,
                                 dt=0.1, T=3000.0, sample_stride=10000)
        assert traj.times[-1] == 3000.0 and traj.status == "completed"


def affine_V_model(a, b, c, kappa):
    """U = w (sigma - s); V = a + b s.sigma + c (s + sigma) - kappa w, exchange-symmetric."""
    def V(s, sig, w):
        s = np.asarray(s, dtype=float)
        return (a + b * np.sum(s * sig, axis=-1) + c * np.sum(s + sig, axis=-1)
                - kappa * np.asarray(w, dtype=float))
    return SmoothModel(
        U=lambda s, sig, w: np.asarray(w, dtype=float)[..., None] * (np.asarray(sig, dtype=float) - s),
        V=V, symmetric_V=True)


coefficient = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def symmetric_systems(draw):
    model = affine_V_model(draw(coefficient), draw(coefficient), draw(coefficient),
                           draw(st.floats(0.0, 2.0)))
    N = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = rng.uniform(-1.0, 1.0, size=(N, 1))
    W = np.triu(rng.uniform(-1.0, 1.0, size=(N, N)), 1)
    return model, states, W + W.T


def assert_symmetric(mats):
    for W in mats:
        assert W.tobytes() == W.T.copy().tobytes()


@settings(max_examples=50)
@given(symmetric_systems(), st.sampled_from(["rk4", "euler", "rkf45"]))
def test_integrate_micro_keeps_weights_bitwise_symmetric(system, method):
    model, states, W = system
    traj = integrate_micro(AgentConfiguration(states=states, weights=W), model,
                           dt=0.05, T=0.2, method=method)
    assert len(traj.configs) == 5
    assert_symmetric(c.weights for c in traj.configs)


@settings(max_examples=50)
@given(symmetric_systems())
def test_conditional_characteristics_keep_weights_bitwise_symmetric(system):
    model, states, W = system
    ens = CharacteristicEnsemble(anchors=states, pair_weights=W,
                                 masses=uniform_masses(states.shape[0]))
    traj = integrate_characteristics_conditional(ens, model, dt=0.05, T=0.2)
    assert len(traj.ensembles) == 5
    assert_symmetric(e.pair_weights for e in traj.ensembles)


@settings(max_examples=50)
@given(st.integers(1, 5), st.integers(0, 12), st.sampled_from(["rk4", "euler", "rkf45"]))
def test_strided_micro_run_is_the_full_run_subsampled(stride, n_steps, method):
    model = catalog("kernel-relaxation", {
        "K": lambda x: x, "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)), "kappa": 1.0})
    rng = np.random.default_rng(stride + 10 * n_steps)
    W = np.triu(rng.uniform(0.0, 1.0, size=(4, 4)), 1)
    cfg = AgentConfiguration(states=rng.uniform(-1.0, 1.0, size=(4, 1)), weights=W + W.T)
    full = integrate_micro(cfg, model, dt=0.05, T=0.05 * n_steps, method=method)
    strided = integrate_micro(cfg, model, dt=0.05, T=0.05 * n_steps, method=method,
                              sample_stride=stride)
    keep = list(range(0, n_steps + 1, stride))
    if keep[-1] != n_steps:
        keep.append(n_steps)
    assert strided.times == [full.times[k] for k in keep]
    for c, k in zip(strided.configs, keep, strict=True):
        assert c.states.tobytes() == full.configs[k].states.tobytes()
        assert c.weights.tobytes() == full.configs[k].weights.tobytes()
