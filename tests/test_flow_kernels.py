"""The compiled micro flow and nullcline solve against their numpy references.

``microsim._micro_flow`` (``coevnet_flow_pairs`` and ``coevnet_rk4_combine``)
must give the bytes of ``microsim._micro_flow_py`` for every f evaluation and
step, and raise the same errors; ``microsim._nullcline_array``
(``coevnet_illinois``) must give the bytes of ``_nullcline_array_py``.  With
no library the references are bound and the CLI writes the pinned bytes.
"""

import hashlib
import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coevnet import _native, cli, microsim
from coevnet.cli import main
from coevnet.errors import IntegrationError, NullclineNotFound
from coevnet.microsim import AgentConfiguration, _stack
from coevnet.models import SmoothModel, catalog
from test_cli_bytes import CONFIGS, PINNED

compiled_flow = microsim._bind_flow(_native.LIB)
compiled_nullcline = microsim._bind_nullcline(_native.LIB)


def pair_model(m, symmetric_V, external=False):
    """U pulls s towards sigma with weight w; V = -w exp(-g) decays w at a
    rate set by |s - sigma|^2 (exchange-symmetric) or by s - sigma's first
    component (not symmetric), and is -0.0 wherever w is 0.0."""
    def U(s, sig, w):
        return (np.asarray(sig, dtype=float) - s) * np.asarray(w, dtype=float)[..., None]

    def V(s, sig, w):
        d = np.asarray(s, dtype=float) - sig
        g = np.sum(d * d, axis=-1) if symmetric_V else d[..., 0] + 0.5 * d[..., 0] ** 2
        return -np.asarray(w, dtype=float) * np.exp(-g)

    return SmoothModel(U=U, V=V, m=m, symmetric_V=symmetric_V,
                       U0=(lambda s: -0.25 * np.asarray(s, dtype=float)) if external else None)


def flows(cfg, model, eps_w, eps_s=1.0, masses=None):
    return (compiled_flow(cfg, model, eps_w, eps_s, masses),
            microsim._micro_flow_py(cfg, model, eps_w, eps_s, masses))


def random_cfg(rng, N, m, symmetric, zeros):
    w = rng.uniform(-1.0, 1.0, size=(N, N))
    if symmetric:
        w = np.triu(w, 1) + np.triu(w, 1).T
    w[zeros | zeros.T if symmetric else zeros] = 0.0
    np.fill_diagonal(w, 0.0)
    return AgentConfiguration(states=rng.uniform(-1.0, 1.5, size=(N, m)), weights=w,
                              symmetric=symmetric)


def raised(run):
    """The type and message of what run() raises, or its result's bytes."""
    try:
        with np.errstate(all="ignore"):
            return run().tobytes()
    except (IntegrationError, NullclineNotFound) as err:
        return type(err).__name__, str(err)


# ----------------------------------------------------------------- the binding

@pytest.mark.needs_cc
def test_compiled_flow_is_in_use():
    assert microsim._micro_flow is not microsim._micro_flow_py
    assert microsim._flow_pairs is not None


@pytest.mark.needs_cc
def test_compiled_nullcline_is_in_use():
    assert microsim._nullcline_array is not microsim._nullcline_array_py


def test_without_a_library_the_references_are_bound(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="coevnet._native"):
        lib = _native.load_library(str(tmp_path / "no-such-cc"))
    assert lib is None
    assert microsim._bind_flow(lib) is microsim._micro_flow_py
    assert microsim._bind_pairs(lib) is None
    assert microsim._bind_nullcline(lib) is microsim._nullcline_array_py


def test_without_a_library_the_flow_runs_write_the_pinned_bytes(tmp_path, monkeypatch):
    pinned = json.loads(PINNED.read_text())
    if np.__version__ != pinned["numpy"]:
        pytest.skip(f"hashes were made with numpy {pinned['numpy']}, this is {np.__version__}")
    monkeypatch.setattr(microsim, "_micro_flow", microsim._bind_flow(None))
    monkeypatch.setattr(microsim, "_flow_pairs", microsim._bind_pairs(None))
    monkeypatch.setattr(microsim, "_nullcline_array", microsim._bind_nullcline(None))
    monkeypatch.setattr(cli, "_nullcline_array", microsim._bind_nullcline(None))
    checked = 0
    for name in ("micro", "micro-rkf45", "diffusive", "characteristics", "epsilon-sweep-5"):
        (tmp_path / f"{name}.json").write_text(json.dumps(CONFIGS[name]))
        out = tmp_path / name
        assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0, name
        for csv in sorted(out.rglob("*.csv")):
            key = f"{name}/{csv.relative_to(out).as_posix()}"
            assert hashlib.sha256(csv.read_bytes()).hexdigest() == pinned["sha256"][key], key
            checked += 1
    assert checked == 9


# ----------------------------------------------------------------- the flow

@pytest.mark.needs_cc
@settings(max_examples=60)
@given(L=st.sampled_from([1, 3]), N=st.sampled_from([*range(2, 10), 17]),
       m=st.sampled_from([1, 2]), with_one=st.booleans(), symmetric_V=st.booleans(),
       symmetric=st.booleans(), with_masses=st.booleans(), external=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_f_and_steps_are_bitwise_the_reference(L, N, m, with_one, symmetric_V, symmetric,
                                                with_masses, external, seed):
    rng = np.random.default_rng(seed)
    if with_one:
        eps_w = [1.0] if L == 1 else [0.5, 1.0, 0.01]
    else:
        eps_w = list(rng.uniform(0.01, 2.0, size=L))
    zeros = np.triu(rng.random((N, N)) < 0.3, 1)   # zero weights: V is -0.0 there
    cfg = random_cfg(rng, N, m, symmetric, zeros)
    model = pair_model(m, symmetric_V, external)
    masses = rng.uniform(0.1, 1.0, size=N) if with_masses else None
    (f_c, step_c), (f_py, step_py) = flows(cfg, model, eps_w, 0.7, masses)
    z = _stack(cfg, L)
    z[:, :cfg.states.size] += rng.normal(0.0, 0.01, size=(L, cfg.states.size))
    want = f_py(z, 0.5)
    assert f_c(z, 0.5).tobytes() == want.tobytes()
    out = np.full(z.shape, np.nan)
    assert f_c(z, 0.5, out) is out and out.tobytes() == want.tobytes()
    if symmetric and symmetric_V:
        dw = want[:, cfg.states.size:].reshape(L, N, N)
        assert not (np.signbit(dw) & (dw == 0.0)).any()   # no -0.0
        assert np.array_equal(dw, dw.swapaxes(1, 2))
    # rk4 from the caller's state, then from each of the two workspace states in turn
    y_c = y_py = _stack(cfg, L)
    for k in range(4):
        y_c, y_py = step_c(y_c, 0.01 * k, 0.01, "rk4"), step_py(y_py, 0.01 * k, 0.01, "rk4")
        assert y_c.tobytes() == y_py.tobytes()
    for method in ("euler", "rkf45"):
        assert raised(lambda: step_c(y_py, 0.04, 0.01, method)) == \
            raised(lambda: step_py(y_py, 0.04, 0.01, method))


@pytest.mark.needs_cc
@pytest.mark.parametrize("where", ["U on the diagonal", "V below the diagonal"])
@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("symmetric_V", [True, False])
def test_non_finite_forces_raise_the_reference_error(where, L, symmetric_V):
    # the last leg alone has a weight above 100 below the diagonal
    def U(s, sig, w):
        d = np.asarray(sig, dtype=float) - s
        return np.where(d == 0.0, np.inf, d) if where.startswith("U") else d

    def V(s, sig, w):
        w = np.asarray(w, dtype=float)
        return np.where(w > 100.0, np.nan, -w) if where.startswith("V") else -w

    model = SmoothModel(U=U, V=V, symmetric_V=symmetric_V)
    cfg = random_cfg(np.random.default_rng(L), 5, 1, True, np.zeros((5, 5), dtype=bool))
    eps_w = [0.1, 0.01, 0.001][:L]
    (f_c, step_c), (f_py, step_py) = flows(cfg, model, eps_w)
    z = _stack(cfg, L)
    z[L - 1, cfg.states.size + 3 * 5 + 1] = 200.0   # w_31 of the last leg
    got = raised(lambda: f_c(z, 0.25))
    assert got == raised(lambda: f_py(z, 0.25))
    assert got[0] == "IntegrationError" and got[1].startswith("non-finite force evaluation at")
    assert raised(lambda: step_c(z, 0.25, 0.1, "rk4")) == got


# ----------------------------------------------------------------- the nullcline

def affine_V(kappa):
    return catalog("kernel-relaxation", {
        "K": lambda x: x, "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)), "kappa": kappa})


def V_model(V):
    """What the solve reads of a model: V alone, unchecked, so that it may be
    non-finite inside the bracket."""
    return SimpleNamespace(V=V)


NULLCLINE_CASES = {
    **{f"affine kappa={k}": affine_V(k) for k in (0.3, 1.0, 2.5)},
    "cubic": V_model(lambda s, sig, w: np.exp(-np.sum(np.square(np.asarray(s, dtype=float) - sig),
                                                      axis=-1)) - w - w ** 3),
    # an element whose root is an endpoint of a bracket is done before iterating
    "root on an endpoint": V_model(lambda s, sig, w: np.where(
        np.asarray(s)[..., 0] > 0.5, 4.0, 1.0) - np.asarray(w, dtype=float)),
    # V is +inf on the lower end of the grown bracket: bisection steps
    "non-finite endpoint": V_model(lambda s, sig, w: np.where(
        np.asarray(w) < -3.0, np.inf, 10.0 - np.asarray(w, dtype=float))),
    # the first secant point has a NaN value: from there the steps bisect
    "NaN inside the bracket": V_model(lambda s, sig, w: np.where(
        np.abs(w) < 0.5, np.nan, (0.7 + 0.1 * np.asarray(s)[..., 0] - w) * np.exp(w))),
    "subnormal values": V_model(lambda s, sig, w: 5e-324 * np.sign(0.2 - w)
                                + 0.0 * np.asarray(s)[..., 0]),
    # fb - fa overflows: bisection steps
    "overflowing secant": V_model(lambda s, sig, w: 1e308 * (0.3 - np.asarray(w, dtype=float))),
    "sign change without a root": V_model(lambda s, sig, w: np.where(
        np.asarray(w) < 0.3, 1.0, -1.0) + 0.0 * np.asarray(s)[..., 0]),
    "no sign change": V_model(lambda s, sig, w: 1.0 + w * w),
}


@pytest.mark.needs_cc
@pytest.mark.parametrize("name", list(NULLCLINE_CASES))
@pytest.mark.parametrize("N", [1, 4, 9])
def test_nullcline_is_bitwise_the_reference(name, N):
    model = NULLCLINE_CASES[name]
    x = np.random.default_rng(N).uniform(-1.0, 1.5, size=(N, 1))
    si, sj = x[:, None], x[None]
    got = raised(lambda: compiled_nullcline(model, si, sj))
    assert got == raised(lambda: microsim._nullcline_array_py(model, si, sj))


@pytest.mark.needs_cc
@pytest.mark.parametrize("steps", [1, 2, 100])
def test_the_step_limit_raises_as_the_reference(monkeypatch, steps):
    if steps == 100:
        # a sign change at 1e-300: the bracket shrinks by a factor per step
        # and has to reach the spacing there, about 1e-316, so no iterate settles
        model = V_model(lambda s, sig, w: np.where(w < 1e-300, 1.0, -1.0))
    else:
        monkeypatch.setattr(microsim, "_NULLCLINE_MAX_STEPS", steps)
        model = NULLCLINE_CASES["cubic"]
    x = np.array([[0.0], [0.4]])
    got = raised(lambda: compiled_nullcline(model, x[:, None], x[None]))
    assert got == raised(lambda: microsim._nullcline_array_py(model, x[:, None], x[None]))
    assert got == ("NullclineNotFound", f"nullcline iteration did not converge in {steps} steps")
