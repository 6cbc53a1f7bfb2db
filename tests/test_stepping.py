import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coevnet.characteristics import (
    CharacteristicEnsemble,
    integrate_characteristics_conditional,
    uniform_masses,
)
from coevnet.errors import IntegrationError, ModelError
from coevnet.microsim import AgentConfiguration, integrate_micro
from coevnet.models import SmoothModel, catalog
from coevnet.stepping import run_grid


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
        # one scan of the stacked state (one leg: 2 states, 4 weights) per step
        assert scans.count((1, 6)) == 3

    @pytest.mark.parametrize("dt, T, stride, message", [
        (0.0, 1.0, 1, "dt must be positive"),
        (0.1, -1.0, 1, "T must be nonnegative"),
        (0.1, 1.0, 0, "sample_stride must be >= 1"),
    ])
    def test_bad_grid_rejected(self, dt, T, stride, message):
        with pytest.raises(ModelError, match=message):
            run_grid(lambda y, t: y, np.zeros(1), 0.0, dt, T, stride, lambda y, t: None)


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
