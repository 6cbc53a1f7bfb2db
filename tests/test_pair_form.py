"""The kernel-relaxation model's pair form against the model's own U and V.

``catalog("kernel-relaxation", ...)`` carries its K, eta and kappa as a
``models.PairForm``.  While the model's U and V are the form's own, a micro
flow evaluation (``MicroFlow`` or its twin ``microsim._MicroFlow``) forms U
and V from K and eta itself, and a nullcline solve takes eta once; the
bytes, flags and errors must be those of the same U and V called as they
are, which a hand-built ``SmoothModel`` with them does, on both backends.
A copy with U or V replaced, by ``object.__setattr__`` as perfbench's
tracer does or by ``dataclasses.replace``, must run on the replacement.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coevnet import _native, microsim
from coevnet.errors import IntegrationError, InvariantViolation, ModelError, NullclineNotFound
from coevnet.microsim import _nullcline_array, _stack, integrate_micro, integrate_reduced
from coevnet.models import SmoothModel, catalog
from test_flow_kernels import bits, flow_args, flow_pair, random_cfg, reference, solve_grid

compiled_flow = microsim._micro_flow   # compiled while _native.LIB is loaded


def gaussian_eta(x):
    return np.exp(-np.sum(x * x, axis=-1))


def squaring_eta(x):
    """exp(-|x|^2), squaring its argument in place."""
    np.square(x, out=x)
    return np.exp(-np.sum(x, axis=-1))


def tanh_K(x):
    """tanh(x), written into its argument."""
    return np.tanh(x, out=x)


def smaller_K(x):
    """The mean over the partner axis, (..., 1, m): U broadcasts it to the
    pair grid, so the flow calls U and V as they are."""
    return np.mean(x, axis=-2, keepdims=True)


# name -> (K, eta)
KERNELS = {"identity": (lambda x: x, gaussian_eta), "in place": (tanh_K, squaring_eta),
           "smaller K": (smaller_K, gaussian_eta)}


def kernel_relaxation(kernels, kappa, m=1):
    K, eta = KERNELS[kernels]
    return catalog("kernel-relaxation", {"K": K, "eta": eta, "kappa": kappa, "m": m})


def without_form(model):
    """The model's own U and V in a hand-built model, which the flow and
    the solve call as they are."""
    return SmoothModel(U=model.U, V=model.V, m=model.m, symmetric_V=model.symmetric_V)


def outcome(run):
    """bits() of what run() returns, or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return bits(run())
    except (IntegrationError, InvariantViolation, ModelError, NullclineNotFound) as err:
        return type(err).__name__, str(err)


def backends(make, *args):
    """make(*args) on the compiled kernels, then on the numpy twins."""
    return make(*args), reference(make, *args)


PLANTS = [None, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]


@pytest.mark.needs_cc
@settings(max_examples=60, deadline=None)
@given(L=st.sampled_from([1, 3]), N=st.sampled_from([*range(2, 10), 17]),
       m=st.sampled_from([1, 2]), kappa=st.sampled_from([1.0, 0.3]),
       kernels=st.sampled_from(list(KERNELS)), with_one=st.booleans(),
       symmetric=st.booleans(), with_masses=st.booleans(), plant=st.sampled_from(PLANTS),
       seed=st.integers(0, 2 ** 16))
def test_the_pair_form_is_bitwise_the_model_s_U_and_V(L, N, m, kappa, kernels, with_one,
                                                       symmetric, with_masses, plant, seed):
    """f, f into out, chained rk4 steps, then euler and rkf45 steps, and a
    step from a state with -0.0, an infinity, NaN or +-1e308 planted in a
    state or a weight of one leg: the same bytes (up to a NaN's sign and
    payload), flags and errors with the pair form as with the model's own
    U and V, on both backends."""
    rng = np.random.default_rng(seed)
    if with_one:
        eps_w = [1.0] if L == 1 else [0.5, 1.0, 0.01]
    else:
        eps_w = list(rng.uniform(0.01, 2.0, size=L))
    cfg = random_cfg(rng, N, m, symmetric, np.triu(rng.random((N, N)) < 0.3, 1))
    model = kernel_relaxation(kernels, kappa, m)
    masses = rng.uniform(0.1, 1.0, size=N) if with_masses else None
    z = _stack(cfg, L)
    z[:, :cfg.states.size] += rng.normal(0.0, 0.01, size=(L, cfg.states.size))
    planted = z.copy()
    if plant is not None:
        planted[rng.integers(L), rng.integers(z.shape[1])] = plant
    runs = []
    for flow in (*backends(compiled_flow, cfg, model, eps_w, 0.7, masses),
                 *backends(compiled_flow, cfg, without_form(model), eps_w, 0.7, masses)):
        f, step = flow
        out = np.full(z.shape, np.nan)
        got = [outcome(lambda: f(z, 0.5)), outcome(lambda: f(planted, 0.5)),
               outcome(lambda: f(z, 0.5, out) is out and out)]
        y = _stack(cfg, L)
        for k in range(3):
            y = step(y, 0.01 * k, 0.01, "rk4")
            got.append(bits(y))
        for method in ("euler", "rkf45", "rk4"):
            got.append(outcome(lambda: step(y, 0.03, 0.01, method)))
            got.append(outcome(lambda: step(planted, 0.03, 0.01, method)))
        runs.append(got)
    assert runs[0] == runs[1] == runs[2] == runs[3]


def gate_runs(model, cfg, eps_w, masses=None):
    """f into an out filled with 7.0, the bytes it leaves there, and an rk4
    step from the same state: outcome() of each, the same with the pair
    form as with the model's own U and V, on both backends."""
    z = _stack(cfg, len(eps_w))
    z[:, :cfg.states.size] += np.linspace(0.0, 0.01, len(eps_w))[:, None]
    runs = []
    for mdl in (model, without_form(model)):
        for f, step in backends(compiled_flow, cfg, mdl, eps_w, 1.0, masses):
            out = np.full(z.shape, 7.0)
            runs.append((outcome(lambda: f(z, 0.0, out)), out.tobytes(),
                         outcome(lambda: step(z, 0.0, 0.01, "rk4"))))
    assert runs[0] == runs[1] == runs[2] == runs[3]
    return runs[0]


def flagged(runs, eps=""):
    """Whether f and the rk4 step both raise the error of a non-finite force
    at t=0 (naming eps when given) and f writes nothing into its out."""
    message = "non-finite force evaluation at t=0" + (f" for eps={eps}" if eps else "")
    got, out, step = runs
    return (got == step == ("IntegrationError", message)
            and out == np.full(len(out) // 8, 7.0).tobytes())


@pytest.mark.needs_cc
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("L", [1, 3])
def test_an_eta_bad_only_below_the_diagonal_flags_a_symmetric_flow(bad, L):
    """A symmetric flow writes its weight drift from V's upper triangle, but
    checks the whole of V: an eta that is not finite at one pair below the
    diagonal, in every leg, flags each leg and writes nothing."""
    def eta(x):
        e = gaussian_eta(x)
        if np.ndim(x) == 4:   # the flow's pair grid, not the model's probes
            e[:, 3, 1] = bad
        return e
    model = catalog("kernel-relaxation", {"K": lambda x: x, "eta": eta, "kappa": 0.3})
    cfg = random_cfg(np.random.default_rng(L), 5, 1, True, np.zeros((5, 5), dtype=bool))
    assert cfg.symmetric and model.symmetric_V
    assert flagged(gate_runs(model, cfg, [0.5, 0.1, 0.01][:L]), "0.5, 0.1, 0.01" * (L > 1))


@pytest.mark.needs_cc
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("m", [1, 2])
def test_a_K_bad_only_at_d_zero_flags(bad, m):
    """K not finite at d = 0 only: U's diagonal, -(0 K(0)), is NaN there, and
    the flow checks it before it zeroes U's diagonal, so the leg is flagged."""
    def K(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.0, bad, x)
    model = catalog("kernel-relaxation", {"K": K, "eta": gaussian_eta, "kappa": 1.0, "m": m})
    cfg = random_cfg(np.random.default_rng(m), 6, m, True, np.zeros((6, 6), dtype=bool))
    assert flagged(gate_runs(model, cfg, [0.2]))


def huge_K(x):
    """2.5e307 with the sign of d's first component there, d's other
    components as they are: finite, and so is U = -(w K) for |w| <= 2 (the
    model's probes), but a row of U with eight terms of one sign at w = 1
    overflows its sum."""
    k = np.array(x, dtype=float)
    k[..., 0] = np.where(k[..., 0] > 0.0, 2.5e307, -2.5e307)
    return k


@pytest.mark.needs_cc
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("with_masses", [False, True])
def test_a_finite_U_whose_row_sum_overflows_is_not_flagged(m, with_masses):
    """Every U and V is finite, but the first component of the outermost
    agents' row sums overflows to +-inf: f is not flagged and writes the
    twin's bytes (the infinite state drift, and the other component's
    finite sums); the rk4 step, whose later stages are not finite, raises
    the same error on both backends."""
    N = 12
    cfg = microsim.AgentConfiguration(
        states=np.random.default_rng(m).uniform(-1.0, 1.0, size=(N, m)),
        weights=np.ones((N, N)) - np.eye(N))
    model = catalog("kernel-relaxation", {"K": huge_K, "eta": gaussian_eta, "kappa": 0.3,
                                          "m": m})
    masses = np.ones(N) if with_masses else None
    got = gate_runs(model, cfg, [0.5, 0.1], masses)[0]
    f, _ = compiled_flow(cfg, model, [0.5, 0.1], 1.0, masses)
    out = f(_stack(cfg, 2), 0.0)
    ds = out[:, :N * m].reshape(2, N, m)
    assert bits(out) == got
    assert np.isinf(ds[..., 0]).any() and np.isfinite(ds[..., 1:]).all()
    assert np.isfinite(out[:, N * m:]).all()


@pytest.mark.needs_cc
@pytest.mark.parametrize("which", ["K", "eta"])
@pytest.mark.parametrize("symmetric", [True, False])
def test_only_the_middle_leg_of_three_is_flagged(which, symmetric):
    """K or eta not finite at one pair of the middle leg only: the flow's
    flags are (True, False, True), and f and the rk4 step name that leg's
    eps alone."""
    def bad(kernel):
        def planted(x):
            r = np.array(kernel(x), dtype=float)
            if np.ndim(x) == 4:
                r[1, 0, 2] = np.nan
            return r
        return planted
    K, eta = (lambda x: x), gaussian_eta
    K, eta = (bad(K), eta) if which == "K" else (K, bad(eta))
    model = catalog("kernel-relaxation", {"K": K, "eta": eta, "kappa": 0.3})
    N, eps_w = 4, np.array([0.5, 0.1, 0.01])
    cfg = random_cfg(np.random.default_rng(3), N, 1, symmetric, np.zeros((N, N), dtype=bool))
    assert flagged(gate_runs(model, cfg, eps_w), "0.1")
    z = _stack(cfg, 3)
    states, W = z[:, :N].reshape(3, N, 1), z[:, N:].reshape(3, N, N)
    for flow in flow_pair(model, N, 1, eps_w, 1.0, None, symmetric, N + N * N, model.V):
        out = np.full(z.shape, 7.0)
        assert flow(*flow_args(states, W, out)) == (True, False, True)
        assert out.tobytes() == np.full(z.shape, 7.0).tobytes()


# name -> eta, each with kappa 0.3, 1.0 and 2.5
SOLVE_ETAS = {
    "gaussian": gaussian_eta,
    "in place": squaring_eta,
    # roots up to 200: the bracket grows
    "bracket grown": lambda x: np.full(np.shape(x)[:-1], 200.0) + 0.0 * x[..., 0],
    # roots at 1e7 / kappa, beyond the last bracket
    "no sign change": lambda x: np.full(np.shape(x)[:-1], 1e7),
    # NaN on the diagonal pairs, which the model's probes do not hit
    "NaN": lambda x: np.where(np.asarray(x)[..., 0] == 0.0, np.nan, gaussian_eta(x)),
    "smaller": lambda x: np.array([0.7]),
}


@pytest.mark.needs_cc
@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("eta", list(SOLVE_ETAS))
@pytest.mark.parametrize("seed", range(6))
def test_the_solve_with_the_form_is_bitwise_the_solve_without(eta, kappa, seed):
    """On the six pair grids of test_flow_kernels, both backends return the
    same roots, or raise the same error, with eta taken once per solve as
    with the model's own V."""
    model = catalog("kernel-relaxation", {"K": lambda x: x, "eta": SOLVE_ETAS[eta],
                                          "kappa": kappa})
    si, sj = solve_grid(seed)
    runs = [outcome(lambda: solve(mdl, si, sj))
            for mdl in (model, without_form(model))
            for solve in (_nullcline_array, lambda *a: reference(_nullcline_array, *a))]
    assert runs[0] == runs[1] == runs[2] == runs[3]


class Refused(Exception):
    pass


@pytest.mark.needs_cc
@pytest.mark.parametrize("which", ["K", "eta", "K and eta"])
def test_a_raising_kernel_propagates_on_both_backends(which):
    """eta is called before K, as the model's V before its U, so when both
    raise, eta's error propagates; a solve calls eta alone."""
    armed = set()

    def K(x):
        if "K" in armed:
            raise Refused("K")
        return x

    def eta(x):
        if "eta" in armed:
            raise Refused("eta")
        return gaussian_eta(x)
    model = catalog("kernel-relaxation", {"K": K, "eta": eta, "kappa": 0.3})
    armed.update(which.split(" and "))
    cfg = fast_network_cfg()
    s = cfg.states.reshape(1, 4, 1)
    for f, _ in backends(compiled_flow, cfg, model, [0.1, 0.01]):
        with pytest.raises(Refused, match="eta" if "eta" in armed else "K"):
            f(_stack(cfg, 2), 0.0)
    for solve in (_nullcline_array, lambda *a: reference(_nullcline_array, *a)):
        if "eta" in armed:
            with pytest.raises(Refused, match="eta"):
                solve(model, s[:, :, None, :], s[:, None, :, :])
        else:
            solve(model, s[:, :, None, :], s[:, None, :, :])


def counting_kernels(calls, kappa=1.0):
    """The fast-network model with K and eta appending their names to calls."""
    return catalog("kernel-relaxation", {
        "K": lambda x: calls.append("K") or x,
        "eta": lambda x: calls.append("eta") or gaussian_eta(x), "kappa": kappa})


def fast_network_cfg():
    rng = np.random.default_rng(0)
    states = rng.uniform(-1.0, 1.5, size=(4, 1))
    W = np.triu(rng.uniform(0.0, 1.0, size=(4, 4)), 1)
    return microsim.AgentConfiguration(states=states, weights=W + W.T)


@pytest.mark.needs_cc
@pytest.mark.parametrize("lib", ["compiled", "numpy"])
def test_one_evaluation_calls_eta_and_K_once_and_one_solve_eta_once(monkeypatch, lib):
    """Each call of K or eta is counted; the model's U calls K and its V
    eta, so these counts also show that neither U nor V is called."""
    if lib == "numpy":
        monkeypatch.setattr(_native, "LIB", None)
    calls = []
    model = counting_kernels(calls)
    cfg = fast_network_cfg()
    f, _ = compiled_flow(cfg, model, [0.1, 0.01, 0.001])
    s = cfg.states.reshape(1, 4, 1)
    si, sj = s[:, :, None, :], s[:, None, :, :]
    calls.clear()
    f(_stack(cfg, 3), 0.0)
    assert calls == ["eta", "K"]
    calls.clear()
    _nullcline_array(model, si, sj)
    assert calls == ["eta"]
    calls.clear()
    integrate_reduced(cfg.states, model, dt=0.01, T=0.01)   # one rk4 step: four solves and drifts
    assert calls == ["eta", "K"] * 4
    plain = without_form(model)
    calls.clear()
    _nullcline_array(plain, si, sj)   # the model's own V, at each solve point
    assert calls == ["eta"] * 4


@pytest.mark.needs_cc
@pytest.mark.parametrize("lib", ["compiled", "numpy"])
@pytest.mark.parametrize("which", ["U", "V"])
@pytest.mark.parametrize("how", ["object.__setattr__", "dataclasses.replace"])
def test_a_model_with_U_or_V_replaced_runs_on_the_replacement(monkeypatch, lib, which, how):
    """A copy of a catalog model with U or V wrapped, as perfbench's tracer
    wraps them, or rebuilt by dataclasses.replace, runs on U and V as they
    are: the wrapper sees every evaluation (and, for V, every solve point),
    eta is taken at every V call, and the bytes are the model's."""
    if lib == "numpy":
        monkeypatch.setattr(_native, "LIB", None)
    kernel_calls, wrapped_calls = [], []
    model = counting_kernels(kernel_calls, kappa=0.3)
    inner = getattr(model, which)

    def wrapped(*args):
        wrapped_calls.append(1)
        return inner(*args)
    if how == "object.__setattr__":
        replaced = copy.copy(model)
        object.__setattr__(replaced, which, wrapped)
    else:
        replaced = dataclasses.replace(model, **{which: wrapped})
    cfg = fast_network_cfg()
    runs = []
    for mdl in (model, replaced):
        kernel_calls.clear()
        wrapped_calls.clear()
        micro = integrate_micro(cfg, mdl, dt=0.01, T=0.02, eps_w=0.1)   # eight evaluations
        counts = [len(wrapped_calls), kernel_calls.count("eta")]
        wrapped_calls.clear()
        kernel_calls.clear()
        reduced = integrate_reduced(cfg.states, mdl, dt=0.01, T=0.01)   # four solves and drifts
        counts += [len(wrapped_calls), kernel_calls.count("eta")]
        runs.append(([c.states.tobytes() + c.weights.tobytes() for c in micro.configs],
                     [s.tobytes() for s in reduced.states], counts))
    plain = without_form(model)
    kernel_calls.clear()
    integrate_reduced(cfg.states, plain, dt=0.01, T=0.01)
    at_solve_points = kernel_calls.count("eta")   # V's calls over the four solves
    assert at_solve_points > 4
    assert runs[0][:2] == runs[1][:2]
    assert runs[0][2] == [0, 8, 0, 4]
    # U is called once per evaluation, V once per evaluation and at each solve point
    assert runs[1][2] == [8, 8, *((4, at_solve_points) if which == "U" else (at_solve_points,) * 2)]
