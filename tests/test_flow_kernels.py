"""The compiled micro flow, nullcline solve and step entries against their numpy references.

Each compiled entry of ``microsim`` has a numpy reference: ``MicroFlow``
its twin ``microsim._MicroFlow`` (the same constructor and call),
``nullcline`` its twin ``microsim._nullcline_py`` (the same arguments), and
the step entry ``rk_step`` ``stepping.rk4_step`` and ``rkf45_step``, with
the checks of ``microsim._step_flags``.  Each pair must write the same
bytes, return the same value, make the same model calls with the same
arguments, show the same warnings and raise the same errors.  The flow's
equal-mass row sum must be bitwise ``np.add.reduce``, and a step of the
step entry on planted derivatives bitwise stepping's step fed the same
ones.  Each driver, the workspace's steps too, runs on the references when
``_native.LIB`` is None, which is how the references are built
here: ``microsim._micro_flow`` must then give the same bytes for every f
evaluation and step, rejected RKF45 substeps included, and raise the same
errors, as must ``integrate_reduced`` and ``microsim._nullcline_array``.
"""

import hashlib
import json
import logging
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coevnet import _native, _pool, microsim, stepping
from coevnet.cli import main
from coevnet.compare import run_epsilon_sweep
from coevnet.errors import IntegrationError, InvariantViolation, ModelError, NullclineNotFound
from coevnet.microsim import AgentConfiguration, _stack, integrate_reduced
from coevnet.models import SmoothModel, catalog
from test_cli_bytes import CONFIGS, PINNED

compiled_flow = microsim._micro_flow   # compiled while _native.LIB is loaded
compiled_nullcline = microsim._nullcline_array


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


def reference(fn, *args):
    """fn(*args) with ``_native.LIB`` None, so that it runs on the numpy twins."""
    lib, _native.LIB = _native.LIB, None
    try:
        return fn(*args)
    finally:
        _native.LIB = lib


def flows(cfg, model, eps_w, eps_s=1.0, masses=None):
    args = cfg, model, eps_w, eps_s, masses
    return compiled_flow(*args), reference(compiled_flow, *args)


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
    except (IntegrationError, InvariantViolation, NullclineNotFound) as err:
        return type(err).__name__, str(err)


# ----------------------------------------------------------------- the binding

@pytest.mark.needs_cc
def test_compiled_flow_is_in_use(monkeypatch):
    assert _native.LIB is not None
    monkeypatch.setattr(microsim, "_MicroFlow", None)   # calling it would fail
    cfg = random_cfg(np.random.default_rng(0), 4, 1, True, np.zeros((4, 4), dtype=bool))
    microsim.micro_rhs(cfg, pair_model(1, True))


@pytest.mark.needs_cc
def test_compiled_step_is_in_use(monkeypatch):
    """rk4 and rkf45 steps of the micro flow and of the reduced run call
    neither stepping's steps nor the flow twin."""
    assert _native.LIB is not None
    monkeypatch.setattr(microsim, "rk4_step", None)   # the workspace's numpy steps
    monkeypatch.setattr(microsim, "rkf45_step", None)
    monkeypatch.setattr(microsim, "_MicroFlow", None)
    cfg = random_cfg(np.random.default_rng(0), 4, 1, True, np.zeros((4, 4), dtype=bool))
    _, step = compiled_flow(cfg, affine_V(1.0), [0.5, 0.1])
    step(step(_stack(cfg, 2), 0.0, 0.01, "rk4"), 0.01, 0.01, "rkf45")
    integrate_reduced(cfg.states, affine_V(1.0), dt=0.01, T=0.02)


@pytest.mark.needs_cc
def test_compiled_nullcline_is_in_use(monkeypatch):
    assert _native.LIB is not None
    monkeypatch.setattr(microsim, "_nullcline_py", None)   # calling it would fail
    microsim.solve_weight_nullcline(affine_V(1.0), [0.1], [0.3])


@pytest.mark.needs_cc
def test_the_workspace_takes_its_backend_when_made(monkeypatch):
    lib = _native.LIB
    ws = microsim._Workspace(None, np.ones(1), 4)
    monkeypatch.setattr(_native, "LIB", None)
    assert ws.lib is lib is not None
    assert microsim._Workspace(None, np.ones(1), 4).lib is None


def spy(monkeypatch, name):
    """Count the calls of microsim.<name>."""
    calls = []
    fn = getattr(microsim, name)
    monkeypatch.setattr(microsim, name, lambda *args: calls.append(1) or fn(*args))
    return calls


def test_without_a_library_the_references_are_bound(tmp_path, caplog, monkeypatch):
    with caplog.at_level(logging.WARNING, logger="coevnet._native"):
        lib = _native.load_library(str(tmp_path / "no-such-cc"))
    assert lib is None
    monkeypatch.setattr(_native, "LIB", lib)
    flow, nullcline = spy(monkeypatch, "_MicroFlow"), spy(monkeypatch, "_nullcline_py")
    cfg = random_cfg(np.random.default_rng(0), 4, 1, True, np.zeros((4, 4), dtype=bool))
    microsim.micro_rhs(cfg, pair_model(1, True))
    microsim.solve_weight_nullcline(affine_V(1.0), [0.1], [0.3])
    assert flow and nullcline


def test_without_a_library_the_flow_runs_write_the_pinned_bytes(tmp_path, monkeypatch):
    pinned = json.loads(PINNED.read_text())
    if np.__version__ != pinned["numpy"]:
        pytest.skip(f"hashes were made with numpy {pinned['numpy']}, this is {np.__version__}")
    monkeypatch.setattr(_native, "LIB", None)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)   # no pool forks: the spies see every call
    flow, nullcline = spy(monkeypatch, "_MicroFlow"), spy(monkeypatch, "_nullcline_py")
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
    assert flow and nullcline


# ----------------------------------------------------------------- the twins

SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2e-310, -2e-310])


def planted(rng, shape, finite=False, share=0.3):
    """Normal draws over several decades with a share of them replaced by
    -0.0, +0.0, subnormals and, unless finite, NaN and infinities."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape) < share
    x[pick] = rng.choice(SPECIAL[np.isfinite(SPECIAL)] if finite else SPECIAL, size=pick.sum())
    return x


def bits(x):
    """x's bytes with every NaN made the one quiet NaN.  Which of two NaN
    operands a + or * returns depends on the order of its operands, which
    a C compiler may swap (both are commutative), so a NaN's sign and
    payload are not kept; every other bit is, the sign of a zero too."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


def flow_pair(model, N, m, eps_w, eps_s=1.0, masses=None, sym=False, row=0, V=None):
    """The compiled flow and its numpy twin, as microsim._particle_drift makes them."""
    args = model, N, m, np.asarray(eps_w, dtype=float), eps_s, masses, sym, row, V
    flow_c, flow_py = microsim._particle_drift(*args), reference(microsim._particle_drift, *args)
    assert type(flow_c) is _native.LIB.MicroFlow and type(flow_py) is microsim._MicroFlow
    return flow_c, flow_py


def flow_args(states, W, out):
    """The call arguments of a flow over states (L, N, m), weights W and the
    output out (L rows, each its states, then anything)."""
    L, N, m = states.shape
    ds = out[:, :N * m].reshape(L, N, m)
    return states, states[:, :, None, :], states[:, None, :, :], W, ds, out


def boschi_U0(s):
    """The boschi catalog model's external force, U0 = -s."""
    return -np.asarray(s, dtype=float)


@pytest.mark.needs_cc
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("with_V", [True, False])
@pytest.mark.parametrize("with_eps", [True, False])
@pytest.mark.parametrize("sym", [True, False])
def test_flow_pairs_twin_writes_the_kernel_bytes(seed, with_V, with_eps, sym):
    """One call of ``MicroFlow`` against its twin ``_MicroFlow`` on planted
    U and V results: seeds 0-3 are finite, so U's diagonal, the weight drift
    (-0.0 in V's upper triangle becomes +0.0 with sym) and the states' drift
    are written; seeds 4 and 5 put one non-finite entry into the last leg's
    U, or the first leg's V, so that only the per-leg flags come back and
    nothing is written.  Odd seeds weight the partners by masses, seeds 2,
    3 and 5 add the external force U0, and each seed draws its eps_s."""
    rng = np.random.default_rng(seed)
    L, N, m = (1, 3)[seed % 2], 2 + seed, 1 + seed % 2
    n, row = N * m, N * m + N * N
    U = planted(rng, (L, N, N, m), finite=True)
    V = planted(rng, (L, N, N), finite=True)
    if seed >= 4:
        target = V[0] if with_V and seed == 5 else U[L - 1]
        target.flat[rng.integers(target.size)] = rng.choice([np.nan, np.inf, -np.inf])
    z = planted(rng, (L, row), finite=True)
    flow = planted(rng, (L, row))   # what the output held, NaN included
    eps_w = rng.uniform(1e-3, 2.0, size=L) if with_eps else np.ones(L)
    masses = rng.uniform(0.1, 1.0, size=N) if seed % 2 else None
    results = []   # U's, whose diagonal the call zeroes in place (the twin overwrites V too)
    model = SimpleNamespace(m=m, U=lambda *a: results.append(U.copy()) or results[-1],
                            U0=boschi_U0 if seed in (2, 3, 5) else None)
    flows = flow_pair(model, N, m, eps_w, rng.uniform(0.5, 2.0), masses, sym, row,
                      (lambda *a: V.copy()) if with_V else None)
    runs = []
    for fn in flows:
        results.clear()
        out = flow.copy()
        states = z[:, :n].reshape(L, N, m)
        with np.errstate(all="ignore"):
            got = fn(*flow_args(states, z[:, n:].reshape(L, N, N), out))
        runs.append((got, out.tobytes(), [r.tobytes() for r in results]))
    assert runs[0] == runs[1]
    if seed >= 4:
        assert runs[0][0] is not None and not all(runs[0][0])
        assert runs[0][1] == flow.tobytes()
    else:
        assert runs[0][0] is None
        assert not np.array_equal(np.frombuffer(runs[0][1]), flow.ravel(), equal_nan=True)


@pytest.mark.needs_cc
@pytest.mark.parametrize("which", ["U", "V", "U0", "row_sum"])
def test_a_raising_callback_propagates_on_both_paths(which):
    class Refused(Exception):
        pass

    def refuse(*args):
        raise Refused(which)

    base = pair_model(1, True, external=True)
    model = SimpleNamespace(m=1, U=refuse if which == "U" else base.U,
                            U0=refuse if which == "U0" else base.U0)
    flows = flow_pair(model, 3, 1, [0.5, 0.1], row=12, sym=True,
                      V=refuse if which == "V" else base.V)
    if which == "row_sum":
        flows = tuple(type(f)(base.V, base.U, refuse, 3.0, None, None, 2, 3, 1, 1, 12,
                              microsim._on_grid) for f in flows)
    z = random_cfg(np.random.default_rng(1), 3, 1, True, np.zeros((3, 3), dtype=bool))
    y = _stack(z, 2)
    for fn in flows:
        with pytest.raises(Refused, match=which):
            fn(*flow_args(y[:, :3].reshape(2, 3, 1), y[:, 3:].reshape(2, 3, 3), np.empty(y.shape)))


@pytest.mark.needs_cc
@pytest.mark.parametrize("which", ["U", "V"])
@pytest.mark.parametrize("result", ["flat", "list", "strings"])
def test_a_wrong_result_raises_the_same_error_on_both_paths(which, result):
    """A result that does not broadcast to the pair grid raises the same
    ModelError, one that does not convert to float the same error."""
    wrong = {"flat": lambda s, sig, w: np.zeros(np.size(w) + 1),
             "list": lambda s, sig, w: [[1.0, 2.0, 3.0]],
             "strings": lambda s, sig, w: np.full(np.shape(w), "x")}[result]
    base = pair_model(1, True)
    model = SimpleNamespace(m=1, U=wrong if which == "U" else base.U, U0=None)
    flows = flow_pair(model, 2, 1, [1.0], row=6, sym=True, V=wrong if which == "V" else base.V)
    y = _stack(random_cfg(np.random.default_rng(2), 2, 1, True, np.zeros((2, 2), dtype=bool)), 1)
    errors = []
    for fn in flows:
        with pytest.raises((ModelError, ValueError)) as err:
            fn(*flow_args(y[:, :2].reshape(1, 2, 1), y[:, 2:].reshape(1, 2, 2), np.empty(y.shape)))
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    if result == "flat":
        assert errors[0][0] is ModelError and errors[0][1].startswith(f"{which} returned shape")


@pytest.mark.needs_cc
@pytest.mark.parametrize("case", ["V is w", "U views the state", "U is read-only",
                                  "U is Fortran-ordered", "U views its own memory"])
@pytest.mark.parametrize("L", [1, 2])
def test_a_result_is_copied_where_on_grid_copies_it(case, L):
    """A V that returns its weight argument, or a U that returns a view of
    the state, is copied on both paths, so that mirroring the weight drift
    (the twin does it in V) and zeroing U's diagonal leave the state as it
    was; so is a read-only U, which stays as it was, and a Fortran-ordered
    one.  A fresh U, or a view (it has a base) of memory of its own, is
    taken as it is on both paths: its diagonal is zeroed in place."""
    rng = np.random.default_rng(L)
    cfg = random_cfg(rng, 4, 1, True, np.zeros((4, 4), dtype=bool))
    y, results = _stack(cfg, L), []

    def U(s, sig, w):
        u = (np.asarray(sig) - s) * np.asarray(w)[..., None] + 1.0   # 1.0 on the diagonal
        if case == "U views the state":   # C-contiguous and writable, of the grid's shape
            u = y.reshape(-1)[:L * 16].reshape(L, 4, 4, 1)
        elif case == "U is read-only":
            u.flags.writeable = False
        elif case == "U is Fortran-ordered":
            u = np.asfortranarray(u)
        elif case == "U views its own memory":
            u = np.concatenate([np.zeros(3), u.ravel()])[3:].reshape(L, 4, 4, 1)
        results.append((u, u.copy()))
        return u

    def V(s, sig, w):
        return w if case == "V is w" else -np.asarray(w)

    flows = flow_pair(SimpleNamespace(m=1, U=U, U0=None), 4, 1, [0.5, 0.25][:L], row=20,
                      sym=True, V=V)
    runs = []
    for fn in flows:
        results.clear()
        start, out = y.copy(), np.empty(y.shape)
        assert fn(*flow_args(y[:, :4].reshape(L, 4, 1), y[:, 4:].reshape(L, 4, 4), out)) is None
        assert y.tobytes() == start.tobytes()
        u, before = results[0]
        if case in ("V is w", "U views its own memory"):   # U taken as it is
            assert (u[:, range(4), range(4)] == 0.0).all()
        elif case != "U views the state":
            assert u.tobytes() == before.tobytes()
        runs.append(out.tobytes())
    assert runs[0] == runs[1]
    if case == "V is w":
        want = cfg.weights / np.array([0.5, 0.25][:L]).reshape(L, 1, 1)
        assert np.frombuffer(runs[0]).reshape(L, 20)[:, 4:].tobytes() == \
            want.reshape(L, 16).tobytes()


@pytest.mark.needs_cc
def test_both_paths_make_the_same_model_calls_over_a_sweep(monkeypatch):
    """The fast-network sweep at N = 4 (three stacked legs, the reduced run's
    nullcline solves and drifts) calls U and V the same number of times, in
    the same order, on arguments of the same shapes, on both paths."""
    base = affine_V(1.0)
    rng = np.random.default_rng(0)
    states = rng.uniform(-1.0, 1.5, size=(4, 1))
    W = np.zeros((4, 4))
    for i in range(4):
        for j in range(i + 1, 4):
            W[i, j] = W[j, i] = microsim.solve_weight_nullcline(base, states[i], states[j]) + 0.5
    cfg = AgentConfiguration(states=states, weights=W)
    runs = []
    for lib in (_native.LIB, None):
        monkeypatch.setattr(_native, "LIB", lib)
        calls = []

        def traced(name, fn):
            return lambda *args: calls.append((name, [np.shape(a) for a in args])) or fn(*args)
        model = SmoothModel(U=traced("U", base.U), V=traced("V", base.V), symmetric_V=True)
        calls.clear()   # the model's own probe calls
        rep = run_epsilon_sweep(model, cfg, eps_list=[0.1, 0.01, 0.001], dt=1e-3, T=0.02,
                                reduced_dt=1e-3)
        runs.append((calls, rep.gaps))
    assert runs[0] == runs[1]
    assert {name for name, _ in runs[0][0]} == {"U", "V"}


def solve_both(V, si, sj, fill, max_steps=100, max_bracket=4.0 ** 10, tol=1e-12):
    """One nullcline solve by the compiled ``nullcline`` and by its twin
    ``_nullcline_py``, each on a buffer holding a copy of fill: per path, the
    status (or the type and message of what it raised), the buffer's bytes,
    the V calls, each as its arguments' types, shapes, dtypes, contiguity
    and bytes, and the warnings shown.  V(s, sig, w, k) is told that it is
    the path's k-th call."""
    runs = []
    for solve in (_native.LIB.nullcline, microsim._nullcline_py):
        calls = []

        def logged(s, sig, w):
            calls.append([(type(a), a.shape, a.dtype.str, a.flags.c_contiguous, bits(a))
                          for a in (s, sig, w)])
            return V(s, sig, w, len(calls) - 1)
        buf = fill.copy()
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            try:
                status = solve(logged, si, sj, buf, buf[0, ...], buf[1, ...], buf[8, ...],
                               max_steps, max_bracket, tol, microsim._on_grid)
            except Exception as err:   # noqa: BLE001 - the same error on both paths
                status = type(err).__name__, str(err)
        runs.append((status, bits(buf), calls,
                     [(w.category, str(w.message), w.filename, w.lineno) for w in shown]))
    return runs


@pytest.mark.needs_cc
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("first", [1, 0])
def test_illinois_twin_writes_the_kernel_bytes(seed, first):
    """Illinois iterations on planted values: V, with a root per element,
    returns values with -0.0, NaN, infinities and subnormals planted in them
    (from the bracket's first call on with first, else only at the Illinois
    points), over a buffer planted with them beforehand.  The kernel and the
    twin return the same status, write the same bytes into every row and make
    the same V calls, halvings of both kinds and settled elements among them."""
    rng = np.random.default_rng(seed)
    n = 96
    root = rng.normal(size=n)

    def V(s, sig, w, k):
        values = np.exp(root - w) - 1.0
        if k < (0 if first else 2):
            return values
        pick = np.random.default_rng([seed, k]).random(n) < 0.15
        values[pick] = planted(np.random.default_rng([seed, k, 1]), pick.sum(), share=1.0)
        return values

    fill = planted(rng, (10, n), share=0.15)
    kernel, twin = solve_both(V, np.zeros((n, 1)), np.zeros(1), fill)
    assert kernel == twin
    assert len(kernel[2]) > 3 and kernel[1] != bits(fill)


class Refused(Exception):
    pass


def pair_gap(s, sig):
    """s - sigma of the first state component, on the pair grid."""
    return np.asarray(s, dtype=float)[..., 0] - np.asarray(sig, dtype=float)[..., 0]


def planted_affine(s, sig, w, k):
    """0.3 d - w with -0.0, +0.0 and subnormals planted by the call index."""
    values = np.array(0.3 * pair_gap(s, sig) - w)
    rng = np.random.default_rng(k)
    pick = rng.random(values.shape) < 0.3
    values[pick] = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 2e-310], size=pick.sum())
    return values


def raising(s, sig, w, k):
    if k == 2:   # the first Illinois point
        raise Refused(f"call {k}")
    return 0.6 * pair_gap(s, sig) - w - w ** 3


# name -> (V(s, sig, w, k), the limits that differ from the module's)
SOLVE_CASES = {
    "affine": (lambda s, sig, w, k: 0.6 * pair_gap(s, sig) - 0.9 * w, {}),
    "root on an endpoint": (lambda s, sig, w, k: np.where(
        pair_gap(s, sig) > 0, 4.0, np.where(pair_gap(s, sig) < -0.5, -1.0, 16.0)) - w, {}),
    # roots up to 7.5e5: the bracket grows to 4**10
    "bracket grown": (lambda s, sig, w, k: 3e5 * pair_gap(s, sig) - w, {}),
    "bracket bound": (lambda s, sig, w, k: 3e5 * pair_gap(s, sig) - w, {"max_bracket": 16.0}),
    "infinite endpoint value": (lambda s, sig, w, k: np.where(
        w < -3.0, np.inf, 10.0 + pair_gap(s, sig) - w), {}),
    "NaN value": (lambda s, sig, w, k: np.where(
        np.abs(w) < 0.5, np.nan, (0.7 + 0.1 * pair_gap(s, sig) - w) * np.exp(w)), {}),
    "sign change without a root": (lambda s, sig, w, k: np.where(
        w < 0.3 * pair_gap(s, sig), 1.0, -1.0), {}),
    # the same, with every residual |fw| = 1 on the tolerance
    "residual equal to tol": (lambda s, sig, w, k: np.where(
        w < 0.3 * pair_gap(s, sig), 1.0, -1.0), {"tol": 1.0}),
    "no sign change": (lambda s, sig, w, k: 1.0 + w * w + 0.0 * pair_gap(s, sig), {}),
    "step limit": (lambda s, sig, w, k: np.exp(-pair_gap(s, sig) ** 2) - w - w ** 3,
                   {"max_steps": 2}),
    "planted -0.0 and subnormals": (planted_affine, {}),
    "returns w": (lambda s, sig, w, k: w, {}),
    "smaller broadcastable": (lambda s, sig, w, k: np.mean(
        0.25 + 0.1 * pair_gap(s, sig) - w, keepdims=True), {}),
    "list": (lambda s, sig, w, k: np.asarray(0.2 * pair_gap(s, sig) - w).tolist(), {}),
    "read-only": (lambda s, sig, w, k: np.broadcast_to(0.3 * pair_gap(s, sig) - w, np.shape(w)),
                  {}),
    "transposed": (lambda s, sig, w, k: np.asarray(0.3 * pair_gap(s, sig) - w).T, {}),
    "flat": (lambda s, sig, w, k: np.ravel(0.3 * pair_gap(s, sig) - w), {}),
    "float32": (lambda s, sig, w, k: (0.3 + 0.1 * pair_gap(s, sig) - w).astype(np.float32), {}),
    "wrong shape": (lambda s, sig, w, k: np.zeros(np.size(w) + 1), {}),
    "raises": (raising, {}),
}


def solve_grid(seed):
    """The state views of one of six pair grids: 0-d, (1, 1), (4, 4), (9, 9),
    the reduced run's (1, 4, 4) in two dimensions and the CLI's six pairs."""
    rng = np.random.default_rng(seed)
    if seed == 0:
        x = rng.uniform(-1.0, 1.5, size=(2, 1))
        return x[0], x[1]
    if seed < 4:
        x = rng.uniform(-1.0, 1.5, size=((1, 4, 9)[seed - 1], 1))
        return x[:, None], x[None]
    if seed == 4:
        s = rng.uniform(-1.0, 1.5, size=(1, 4, 2))
        return s[:, :, None, :], s[:, None, :, :]
    x = rng.uniform(-1.0, 1.5, size=(4, 1))
    i, j = np.triu_indices(4, 1)
    return x[i], x[j]


@pytest.mark.needs_cc
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_nullcline_twin_writes_the_kernel_bytes(case, seed):
    """Each solver case on six pair grids: the kernel and the twin return the
    same status (or raise the same error), write the same bytes into every
    row of a buffer that starts planted, make the same V calls with the same
    arguments and show the same warnings."""
    V, limits = SOLVE_CASES[case]
    si, sj = solve_grid(seed)
    grid = np.broadcast_shapes(si.shape[:-1], sj.shape[:-1])
    fill = planted(np.random.default_rng(seed), (10,) + grid)
    kernel, twin = solve_both(V, si, sj, fill, **limits)
    assert kernel == twin
    assert kernel[2], "V was called"
    if case == "raises":
        assert kernel[0] == ("Refused", "call 2") and len(kernel[2]) == 3
    if case == "bracket grown" and seed != 1:   # the (1, 1) grid's pair has the root 0
        assert len(kernel[2]) > 10
    if case == "residual equal to tol":
        assert kernel[0] == 0


@pytest.mark.needs_cc
def test_the_same_warnings_show_on_both_paths(monkeypatch):
    """V's own floating-point warnings, here an overflow at the bracket's
    upper end and at each secant point, show alike on both paths; the
    solve's arithmetic adds none."""
    model = V_model(lambda s, sig, w: 0.3 + 0.0 * np.minimum(np.exp(2500.0 * w), 1.0) - w)
    x = np.array([[0.0], [0.4]])
    runs = []
    for lib in (_native.LIB, None):
        monkeypatch.setattr(_native, "LIB", lib)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            compiled_nullcline(model, x[:, None], x[None])
        runs.append([(w.category, str(w.message), w.filename, w.lineno) for w in got])
    assert runs[0] == runs[1]
    assert len(runs[0]) >= 2   # the bracket's one, then the Illinois points'
    assert {(c, m) for c, m, *_ in runs[0]} == {(RuntimeWarning, "overflow encountered in exp")}


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


@pytest.mark.needs_cc
@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("symmetric", [True, False])
def test_rkf45_is_bitwise_the_reference_through_rejected_substeps(monkeypatch, L, symmetric):
    """Every grid step of the compiled rkf45 equals stepping.rkf45_advance
    over the numpy twins, byte for byte, with the same substeps, some of them
    rejected (a rejected substep leaves the next one to start from its y)."""
    rng = np.random.default_rng(10 * L + symmetric)
    cfg = random_cfg(rng, 6, 2, symmetric, np.triu(rng.random((6, 6)) < 0.3, 1))
    model = pair_model(2, symmetric_V=symmetric, external=True)
    eps_w = [0.004] if L == 1 else [0.5, 0.004, 1.0]
    advance = stepping.rkf45_advance
    runs = {}
    for name, lib in (("compiled", _native.LIB), ("reference", None)):
        starts = []   # the y each substep starts from

        def recorded(f, y, span, t0=0.0, step=stepping.rkf45_step):
            return advance(f, y, span, t0=t0,
                           step=lambda f, y, h: starts.append(y) or step(f, y, h))
        monkeypatch.setattr(microsim, "rkf45_advance", recorded)
        monkeypatch.setattr(_native, "LIB", lib)
        _, step = compiled_flow(cfg, model, eps_w)
        y, got = _stack(cfg, L), []
        for k in range(3):
            y = step(y, 0.1 * k, 0.1, "rkf45")
            got.append(y.tobytes())
        runs[name] = got, len(starts), sum(a is b for a, b in zip(starts, starts[1:]))
    assert runs["compiled"] == runs["reference"]
    assert runs["reference"][2] >= 1


STEP_SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan])
STEP_H = [1e-3, 0.1, 2.0, -0.01]
# The weights of each sum of a step: the RK4 update's (the stages' 1.0 too
# is positive), then the Fehlberg stage rows, its update and its 4th-order one.
STEP_SUMS = {"rk4": [stepping._RK4_B],
             "rkf45": [*stepping._RKF_A[1:], stepping._RKF_B5, stepping._RKF_B4]}


def step_values(rng, shape, finite=False, share=0.3):
    """Normal draws over several decades with a share of them replaced by
    -0.0, +0.0, +-5e-324, +-1e308 (whose sums overflow) and, unless finite,
    +-inf and NaN."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape) < share
    x[pick] = rng.choice(STEP_SPECIAL[:6] if finite else STEP_SPECIAL, size=pick.sum())
    return x


def negative_zero_sum(y, a, ks, at=0):
    """Plant y = -0.0 and every term a[j] k[j] = -0.0 at y's element at,
    where a sum taken from its first term gives -0.0 and one from 0 +0.0."""
    y.flat[at] = -0.0
    for a_j, k in zip(a, ks):
        k.flat[at] = np.copysign(0.0, -a_j)


def planted_step(y, ks, h, method, L=1, n=None, N=0, sym=False):
    """One step from y whose stage derivatives are ks in turn, by the step
    entry and by stepping's rk4_step (then _step_flags) or rkf45_step; the
    f of both is plain python.  Per path: the bits of each stage point f
    is called on, of the update and of the error estimate, or rk4's return
    value."""
    fehlberg, runs = method == "rkf45", []
    n = y.size // L if n is None else n
    for compiled in (True, False):
        points = []

        def rhs(z):
            points.append(bits(z))
            return ks[len(points) - 1]

        def f(z, si, sj, W, ds, k):   # the records hold z where the states go
            k[...] = rhs(z)

        def record(z):
            return z, z, None, None, None
        if compiled:
            out = np.full(y.shape, 7.0)
            bufs = [record(np.full(y.shape, 7.0)) for _ in range(7)]
            got = _native.LIB.rk_step(f, record(y.copy()), bufs[0], tuple(bufs[1:]), out, h,
                                      fehlberg, L, n, N, sym)
        elif fehlberg:
            out, got = stepping.rkf45_step(rhs, y.copy(), h)
        else:
            out = stepping.rk4_step(rhs, y.copy(), h)
            flags = microsim._step_flags(out, L, n, N, sym)
            got = None if flags is None else (4, flags)
        runs.append((points, bits(out), bits(np.float64(got)) if fehlberg else got))
    return runs


@pytest.mark.needs_cc
@pytest.mark.parametrize("seed", range(8))
def test_fehlberg_sums_are_bitwise_rkf45_step(seed):
    """Each stage point, the update and the error estimate of one Fehlberg
    substep of the step entry, on stage derivatives with a share of -0.0,
    subnormals and overflowing sums that grows with the seed (none at seed
    0), infinities and NaN too from seed 4: the error estimate is NaN
    exactly where np.max gives NaN."""
    rng = np.random.default_rng(seed)

    def draw(n):
        x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        pick = rng.random(n) < (0.3 if seed % 2 else 0.05 * (seed // 2))
        x[pick] = rng.choice(STEP_SPECIAL[:6] if seed < 4 else STEP_SPECIAL, size=pick.sum())
        return x

    y, h = draw(64), float(rng.choice([1e-3, 0.1, 2.0]))
    ks = [draw(64) for _ in range(6)]
    if seed >= 4:   # a NaN difference early on, then larger finite ones
        ks[5][3], ks[0][40:] = np.nan, 1e6
    with np.errstate(all="ignore"):
        compiled, reference = planted_step(y, ks, h, "rkf45")
    assert compiled == reference
    assert np.isnan(np.frombuffer(compiled[2])[0]) or seed < 4


@pytest.mark.needs_cc
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("h", STEP_H)
@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_the_step_sums_are_bitwise_stepping_s(method, h, seed):
    """One step of the step entry on planted derivatives against stepping's
    step fed the same ones: every stage point, the update and the error
    estimate, which is NaN exactly where np.max gives NaN.  Seeds 0 and 2
    plant -0.0, +-5e-324 and +-1e308 (whose sums overflow), seeds 1 and 3
    +-inf and NaN too; seed 3 puts a NaN difference early on, then larger
    finite ones.  Each sum of the step has one element where y and its
    every term are -0.0."""
    rng = np.random.default_rng([seed, STEP_H.index(h)])
    finite, share = seed % 2 == 0, 0.3 if seed < 2 else 0.05
    y, ks = step_values(rng, 64, finite, share), [step_values(rng, 64, finite, share)
                                                  for _ in range(6)]
    if seed == 3:
        y[3], ks[0][3], ks[0][40:] = 0.0, np.nan, 1e6
    for at, a in enumerate(STEP_SUMS[method], 10):
        negative_zero_sum(y, a, ks, at)
    with np.errstate(all="ignore"):
        compiled, reference = planted_step(y, ks, h, method)
    assert compiled == reference
    assert len(compiled[0]) == (6 if method == "rkf45" else 4)
    if method == "rkf45" and seed == 3:
        assert np.isnan(np.frombuffer(compiled[2]))


@pytest.mark.needs_cc
@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_an_empty_step_is_bitwise_stepping_s(method):
    """n = 0: every sum is over no element, no check fails and the error
    estimate is 0.0."""
    ks = [np.empty(0) for _ in range(6)]
    compiled, reference = planted_step(np.empty(0), ks, 0.1, method)
    assert compiled == reference
    assert compiled[2] == (bits(np.float64(0.0)) if method == "rkf45" else None)


@pytest.mark.needs_cc
@pytest.mark.parametrize("case", ["finite", "planted", "a non-finite leg", "an asymmetric leg"])
@pytest.mark.parametrize("sym", [True, False])
@pytest.mark.parametrize("L", [1, 3])
def test_the_rk4_update_and_checks_are_stepping_s(case, sym, L):
    """The RK4 update and its step checks on L legs of 8 states and 4 x 4
    symmetric weights, by the step entry and by rk4_step then _step_flags:
    None when every leg is finite and symmetric, else (4, the per-leg
    finiteness flags), all True for a leg that is only asymmetric."""
    rng = np.random.default_rng(L + 2 * sym)
    N, n = 4, 8

    def legs():
        z = step_values(rng, (L, n + N * N), finite=case != "planted",
                        share=0.3 if case == "planted" else 0.0)
        W = np.triu(z[:, n:].reshape(L, N, N), 1)
        z[:, n:] = (W + W.swapaxes(1, 2)).reshape(L, N * N)
        return z

    y, ks = legs(), [legs() for _ in range(4)]
    negative_zero_sum(y, stepping._RK4_B, ks)
    if case == "a non-finite leg":
        ks[2][L - 1, 3] = np.inf
    if case == "an asymmetric leg":
        ks[1][L - 1, n + 1] += 0.5   # w_01 of the last leg, not w_10
    with np.errstate(all="ignore"):
        compiled, reference = planted_step(y, ks, float(rng.choice(STEP_H)), "rk4", L, n, N, sym)
    assert compiled == reference
    got = compiled[2]
    expected = {"finite": None,
                "a non-finite leg": (4, (True,) * (L - 1) + (False,)),
                "an asymmetric leg": (4, (True,) * L) if sym else None}
    if case in expected:
        assert got == expected[case]
    else:
        assert got is not None and not all(got[1])


def test_fehlberg_sums_start_from_their_first_term():
    """y = -0.0 and every term of the update -0.0 (the 5th stage's +0.0
    meets its negative weight): the update is -0.0, as y + h (-0.0), where a
    sum started from 0, as python's sum, would give +0.0."""
    stages = []

    def f(z):
        stages.append(z)
        return np.array([0.0 if len(stages) == 5 else -0.0])
    y5, err = stepping.rkf45_step(f, np.array([-0.0]), 0.1)
    assert y5[0] == 0.0 and np.signbit(y5[0]) and err == 0.0


def external_leg_force(s):
    """1e308 on every state above 100, else 0: such a state's rk4 sum
    k1 + 2 k2 overflows while every force stays finite."""
    return np.where(np.asarray(s, dtype=float) > 100.0, 1e308, 0.0)


@pytest.mark.needs_cc
@pytest.mark.parametrize("method", ["rk4", "rkf45", "euler"])
def test_a_non_finite_leg_raises_the_reference_error(method):
    model = SmoothModel(U=pair_model(1, True).U, V=pair_model(1, True).V, symmetric_V=True,
                        U0=external_leg_force)
    cfg = random_cfg(np.random.default_rng(5), 5, 1, True, np.zeros((5, 5), dtype=bool))
    (_, step_c), (_, step_py) = flows(cfg, model, [0.1, 0.01, 0.001])
    z = _stack(cfg, 3)
    z[2, :5] += 200.0   # the last leg's states
    got = raised(lambda: step_c(z, 0.25, 0.1, method))
    assert got == raised(lambda: step_py(z, 0.25, 0.1, method))
    if method == "rk4":
        assert got == ("IntegrationError", "non-finite state in the step from t=0.25 for eps=0.001")


@pytest.mark.needs_cc
@pytest.mark.parametrize("method", ["rk4", "rkf45", "euler"])
@pytest.mark.parametrize("L", [1, 3])
def test_lost_symmetry_raises_the_reference_error(method, L):
    cfg = random_cfg(np.random.default_rng(6), 5, 1, True, np.zeros((5, 5), dtype=bool))
    (_, step_c), (_, step_py) = flows(cfg, pair_model(1, True), [0.5, 0.1, 0.2][:L])
    z = _stack(cfg, L)
    z[L - 1, 5 + 1] += 0.25   # w_01 of the last leg, not w_10
    got = raised(lambda: step_c(z, 0.25, 0.1, method))
    assert got == raised(lambda: step_py(z, 0.25, 0.1, method))
    assert got == ("InvariantViolation", "weight symmetry lost during integration")


def reduced_model(kappa, external):
    base = affine_V(kappa)
    return SmoothModel(U=base.U, V=base.V, symmetric_V=True,
                       U0=(lambda s: -0.25 * np.asarray(s, dtype=float)) if external else None)


@pytest.mark.needs_cc
@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("external", [False, True])
@pytest.mark.parametrize("N", [2, 4, 9])
def test_compiled_reduced_run_is_bitwise_its_numpy_path(monkeypatch, kappa, external, N):
    model = reduced_model(kappa, external)
    states = np.random.default_rng(N).uniform(-1.0, 1.5, size=(N, 1))
    runs = []
    for lib in (_native.LIB, None):
        monkeypatch.setattr(_native, "LIB", lib)
        traj = integrate_reduced(states, model, dt=0.01, T=0.2)
        runs.append((traj.times, [s.tobytes() for s in traj.states]))
    assert runs[0] == runs[1] and len(runs[0][0]) == 21


@pytest.mark.needs_cc
def test_a_non_finite_reduced_step_raises_as_its_numpy_path(monkeypatch):
    base = affine_V(1.0)
    model = SmoothModel(U=base.U, V=base.V, symmetric_V=True, U0=external_leg_force)
    states = np.array([[0.1], [0.7], [150.0]])
    got = []
    for lib in (_native.LIB, None):
        monkeypatch.setattr(_native, "LIB", lib)
        got.append(raised(lambda: integrate_reduced(states, model, dt=0.05, T=0.2).final()))
    assert got[0] == got[1] == ("IntegrationError", "non-finite state in the step from t=0")


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
    assert got == raised(lambda: reference(compiled_nullcline, model, si, sj))


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
    assert got == raised(lambda: reference(compiled_nullcline, model, x[:, None], x[None]))
    assert got == ("NullclineNotFound", f"nullcline iteration did not converge in {steps} steps")


# ----------------------------------------------------------------- the step entry

ROW_SUM_SPECIAL = np.array([-0.0, 5e-324, -5e-324, 1e308, -1e308])


@pytest.mark.needs_cc
@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 136, 200, 257])
def test_row_sum_is_bitwise_np_add_reduce(N, m, L):
    """The flow's equal-mass row sum, of MicroFlow(None, U, None, 1.0, ...),
    against np.add.reduce(U, axis=2) of U with its diagonal zeroed, on draws
    over 17 decades with -0.0, +-5e-324 and +-1e308 planted, a row all -0.0
    but for its zeroed diagonal (whose sum is +0.0), one of +-5e-324 and one of +-1e308 (whose sums
    overflow in some orders but not in others).  A U with an infinity or a
    NaN is flagged before it is summed."""
    rng = np.random.default_rng([N, m, L])
    U = rng.normal(size=(L, N, N, m)) * 10.0 ** rng.integers(-8, 9, size=(L, N, N, m))
    pick = rng.random(U.shape) < 0.05
    U[pick] = rng.choice(ROW_SUM_SPECIAL, size=pick.sum())
    rows = U.reshape(L * N, N, m)
    rows[0] = -0.0
    if L * N > 1:
        rows[-1] = rng.choice([5e-324, -5e-324], size=(N, m))
    if L * N > 2:
        rows[1] = rng.choice([1e308, -1e308], size=(N, m))
    flow = _native.LIB.MicroFlow(None, lambda s, sig, w: U.copy(), None, 1.0, None, None, L, N,
                                 m, 0, 0, microsim._on_grid)
    states, ds = np.zeros((L, N, m)), np.full((L, N, m), 7.0)
    with np.errstate(all="ignore"):
        assert flow(states, states[:, :, None], states[:, None], np.zeros((L, N, N)), ds,
                    None) is None
        U.reshape(L, N * N, m)[:, ::N + 1] = 0.0   # the diagonal
        want = np.add.reduce(U, axis=2)
    assert bits(ds) == bits(want)
    assert (ds[0, 0] == 0.0).all() and not np.signbit(ds[0, 0]).any()


def gaussian(x):
    return np.exp(-np.sum(x * x, axis=-1))


def step_model(form, m):
    """kernel-relaxation with the identity K, gaussian eta and kappa 0.3, with
    its pair form, or its U and V as they are with the external force
    external_leg_force."""
    model = catalog("kernel-relaxation", {"K": lambda x: x, "eta": gaussian, "kappa": 0.3,
                                          "m": m})
    return model if form else SmoothModel(U=model.U, V=model.V, m=m, symmetric_V=True,
                                          U0=external_leg_force)


def per_stage(f, y, t, h, method, eps_w, legs):
    """The step by the per-stage path: f called once per stage, the sums
    stepping's, then the step checks."""
    def rhs(z):
        return f(z, t)
    y_new = stepping.rk4_step(rhs, y, h) if method == "rk4" else stepping.rkf45_advance(
        rhs, y, h, t0=t)
    return microsim._checked(y_new, t, np.asarray(eps_w), microsim._step_flags(y_new, *legs))


def record_substeps(monkeypatch) -> list:
    """The y that each Fehlberg substep of microsim's rkf45 steps starts from."""
    advance, starts = stepping.rkf45_advance, []

    def recorded(f, y, span, t0=0.0, step=stepping.rkf45_step):
        return advance(f, y, span, t0=t0, step=lambda f, y, h: starts.append(y) or step(f, y, h))
    monkeypatch.setattr(microsim, "rkf45_advance", recorded)
    return starts


def outcome(run):
    """bits() of what run() returns, or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return bits(run())
    except (IntegrationError, InvariantViolation) as err:
        return type(err).__name__, str(err)


@pytest.mark.needs_cc
@pytest.mark.parametrize("case", ["finite", "a non-finite leg", "lost symmetry"])
@pytest.mark.parametrize("lib", ["compiled", "numpy"])
@pytest.mark.parametrize("with_masses", [False, True])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("form", [True, False])
@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_the_step_entry_is_bitwise_the_per_stage_path(monkeypatch, method, form, symmetric,
                                                       with_masses, lib, case):
    """Three steps of three stacked legs, one of them stiff (eps 0.004: its
    rkf45 steps reject substeps), in the pair mode or on U and V as they
    are, against the per-stage path on the same backend.  A non-finite leg
    (states 1e308 and -1e308 in the pair mode, whose difference and forces
    are then not finite; states above 100, whose external force overflows
    the update, on U and V) raises the same error naming the same legs, and so does lost
    symmetry, as InvariantViolation with symmetric weights."""
    monkeypatch.setattr(_native, "LIB", _native.LIB if lib == "compiled" else None)
    starts = record_substeps(monkeypatch)
    rng = np.random.default_rng(2 * form + symmetric)
    N, m, eps_w = 6, 2, [0.5, 0.004, 1.0]
    cfg = random_cfg(rng, N, m, symmetric, np.triu(rng.random((N, N)) < 0.3, 1))
    masses = rng.uniform(0.1, 1.0, size=N) if with_masses else None
    f, step = compiled_flow(cfg, step_model(form, m), eps_w, 0.7, masses)
    legs = (3, N * m, N, symmetric)
    y = _stack(cfg, 3)
    if case == "a non-finite leg":
        y[2, [0, m]] = (1e308, -1e308) if form else (200.0, 150.0)   # s_0 and s_1
    if case == "lost symmetry":
        y[2, N * m + 1] += 0.25   # w_01 of the last leg, not w_10
    runs = []
    for k in range(3):
        want = outcome(lambda: per_stage(f, y.copy(), 0.05 * k, 0.05, method, eps_w, legs))
        got = outcome(lambda: step(y, 0.05 * k, 0.05, method))
        assert got == want, k
        runs.append(got)
        if isinstance(got, tuple):
            break
        y = step(y, 0.05 * k, 0.05, method)   # the workspace's next state buffer
    failed = case == "a non-finite leg" or (case == "lost symmetry" and symmetric)
    assert isinstance(runs[-1], tuple) == failed and len(runs) == (1 if failed else 3)
    if case == "a non-finite leg" and (form or method == "rk4"):
        assert runs[0][1].endswith("for eps=1")
    if failed and case == "lost symmetry":
        assert runs[0] == ("InvariantViolation", "weight symmetry lost during integration")
    if method == "rkf45" and case == "finite":
        assert sum(a is b for a, b in zip(starts, starts[1:])) >= 1   # rejected substeps


@pytest.mark.needs_cc
@pytest.mark.parametrize("method, stages", [("rk4", 4), ("rkf45", 6)])
def test_one_compiled_step_calls_eta_and_K_once_per_stage_and_no_python_f(monkeypatch, method,
                                                                           stages):
    """One compiled rk4 step, or one rkf45 step of one accepted Fehlberg
    substep, from a workspace state: eta and K run once per stage, and no
    python code of microsim runs but the step's own calls, so neither f nor
    a buffer's views are made."""
    substeps, calls, frames = record_substeps(monkeypatch), [], []

    def K(x):
        calls.append("K")
        return x

    def eta(x):
        calls.append("eta")
        return gaussian(x)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == microsim.__file__:
            frames.append(frame.f_code.co_name)
    cfg = random_cfg(np.random.default_rng(4), 4, 1, True, np.zeros((4, 4), dtype=bool))
    model = catalog("kernel-relaxation", {"K": K, "eta": eta, "kappa": 1.0})
    _, step = compiled_flow(cfg, model, [0.5, 0.1, 1.0])
    y = step(_stack(cfg, 3), 0.0, 1e-3, "rk4")   # the workspace's buffers are made
    calls.clear()
    sys.setprofile(profile)
    try:
        step(y, 1e-3, 1e-6, method)
    finally:
        sys.setprofile(None)
    assert calls.count("eta") == calls.count("K") == stages and len(calls) == 2 * stages
    assert len(substeps) == (method == "rkf45")
    assert set(frames) == {"step", method, "_start", "_step", "_checked"} | (
        {"substep", "_step_flags"} if method == "rkf45" else set())


def view_eta(x):
    """exp(-x^2) of a one-component x, written into x: a view of x."""
    np.exp(-np.square(x, out=x), out=x)
    return x[..., 0]


# name -> (K, eta)
SCRATCH_KERNELS = {
    "eta writes into its argument": (lambda x: x, lambda x: gaussian(np.square(x, out=x) ** 0.5)),
    "eta returns a view of its argument": (np.tanh, view_eta),
    "K returns its argument": (lambda x: x, gaussian),
}


@pytest.mark.needs_cc
@pytest.mark.parametrize("lib", ["compiled", "numpy"])
@pytest.mark.parametrize("kernels", list(SCRATCH_KERNELS))
def test_the_held_scratch_gives_the_bytes_of_U_and_V_as_they_are(monkeypatch, kernels, lib):
    """Two flows alive at once, on the scratch each holds, whose f calls and
    rk4 and rkf45 steps interleave, against the same runs one flow after
    the other and against the model's U and V called as they are: the same
    bytes, with kernels that write into their argument, return a view of it
    or return it."""
    monkeypatch.setattr(_native, "LIB", _native.LIB if lib == "compiled" else None)
    K, eta = SCRATCH_KERNELS[kernels]
    form = catalog("kernel-relaxation", {"K": K, "eta": eta, "kappa": 0.3})
    plain = SmoothModel(U=form.U, V=form.V, symmetric_V=True)
    rng = np.random.default_rng(7)
    legs = [(random_cfg(rng, 4, 1, True, np.zeros((4, 4), dtype=bool)), [0.5, 0.01]),
            (random_cfg(rng, 5, 1, False, np.zeros((5, 5), dtype=bool)), [0.2])]

    def runs(model):
        """Per flow, its f, three rk4 steps and an rkf45 step, one generator each."""
        for cfg, eps_w in legs:
            f, step = compiled_flow(cfg, model, eps_w)
            y = _stack(cfg, len(eps_w))
            yield bits(f(y, 0.0))
            for k in range(3):
                y = step(y, 0.01 * k, 0.01, "rk4")
                yield bits(y)
            yield bits(step(y, 0.03, 0.01, "rkf45"))

    def interleaved(model):
        """The same runs, with both flows made first and their calls alternating."""
        flows = [(compiled_flow(cfg, model, eps_w), _stack(cfg, len(eps_w))) for cfg, eps_w in legs]
        got = [[bits(f(y, 0.0))] for (f, _), y in flows]
        ys = [y for _, y in flows]
        for k in range(4):
            for i, ((_, step), _) in enumerate(flows):
                ys[i] = step(ys[i], 0.01 * k, 0.01, "rk4" if k < 3 else "rkf45")
                got[i].append(bits(ys[i]))
        return got[0] + got[1]

    assert list(runs(form)) == interleaved(form) == list(runs(plain))
