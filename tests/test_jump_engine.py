"""The compiled Gillespie engine against its pure-python reference loop.

For a fixed seed, ``simulate_minimal`` must give the same events, sample
times, moments and snapshots, and leave the generator in the same state,
whether ``_CMinimalEngine.run`` or ``_MinimalEngine.run`` runs it.
"""

import logging

import numpy as np
import pytest

from coevnet import _native, closures, jumpsim
from coevnet.jumpsim import DiscreteConfiguration, minimal_rates, simulate_minimal
from coevnet.models import MinimalParams
from coevnet.stepping import sample_times


def config(states, edges):
    N = len(states)
    W = np.zeros((N, N), dtype=np.int8)
    for i, j in edges:
        W[i, j] = W[j, i] = 1
    return DiscreteConfiguration(states=np.asarray(states, dtype=np.int8), weights=W)


def complete_edges(members):
    return [(i, j) for k, i in enumerate(members) for j in members[k + 1:]]


def run_both(monkeypatch, cfg, p, T, seed, **kw):
    """(compiled, python) pairs of (trajectory, final generator state)."""
    out = []
    for lib in (_native.LIB, None):
        monkeypatch.setattr(_native, "LIB", lib)
        rng = np.random.default_rng(seed)
        traj = simulate_minimal(cfg, p, T=T, seed=rng, **kw)
        out.append((traj, rng.bit_generator.state))
    return out


def assert_same(monkeypatch, cfg, p, T, seed, **kw):
    (c, c_state), (py, py_state) = run_both(monkeypatch, cfg, p, T, seed, **kw)
    assert c.times == py.times
    assert c.events == py.events
    assert all(type(e[0]) is float and type(e[2]) is int and type(e[3]) is int
               for e in c.events)
    assert len(c.configs) == len(py.configs)
    for a, b in zip(c.configs, py.configs):
        assert a.t == b.t
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(c.moments, py.moments)
    assert c_state == py_state
    return py


@pytest.fixture
def count_enumerations(monkeypatch):
    """Calls of the python engine's dense-type enumeration (its only use of
    np.argwhere)."""
    calls = []
    argwhere = np.argwhere

    def spy(a):
        calls.append(a.shape)
        return argwhere(a)

    monkeypatch.setattr(np, "argwhere", spy)
    return calls


RATES = MinimalParams(alpha_pm=1.0, alpha_mp=0.7, beta_pp=0.4, beta_mm=0.5, beta_pm=0.1,
                      gamma_pp=0.4, gamma_mm=0.3, gamma_pm=1.0)


def random_config(rng, N, rho_p, density):
    states = np.where(rng.random(N) < rho_p, 1, -1).astype(np.int8)
    W = np.triu((rng.random((N, N)) < density).astype(np.int8), 1)
    return DiscreteConfiguration(states=states, weights=W + W.T)


@pytest.mark.needs_cc
def test_compiled_engine_is_in_use():
    cfg = config([1, -1, 1], [(0, 1)])
    assert isinstance(jumpsim._gillespie_engine(cfg, RATES), jumpsim._CMinimalEngine)


@pytest.mark.needs_cc
def test_compiled_init_keeps_the_python_bookkeeping():
    """After init the compiled engine's member lists, the live part of its
    link lists and its link positions at every present code equal the python
    engine's lists and dicts, order included (removals index into them)."""
    rng = np.random.default_rng(17)
    cases = [random_config(rng, int(rng.integers(2, 41)), rng.random(), rng.random())
             for _ in range(40)]
    for N in (2, 3, 17, 40):
        for side in ([1] * N, [-1] * N, [1, -1] * (N // 2) + [1] * (N % 2)):
            cases += [config(side, []), config(side, complete_edges(list(range(N))))]
    for cfg in cases:
        py = jumpsim._MinimalEngine(cfg, RATES)
        c = jumpsim._gillespie_engine(cfg, RATES)
        for side, members in ((0, py.minus_list), (1, py.plus_list)):
            assert c._st.n_members[side] == len(members)
            assert c._members[side, :len(members)].tolist() == members
            assert c._member_pos[members].tolist() == py.member_pos[members].tolist()
        for tau in range(3):
            assert c._st.n_links[tau] == len(py.links[tau])
            assert c._links[tau, :len(py.links[tau])].tolist() == py.links[tau]
            assert {code: int(c._link_pos[code]) for code in py.links[tau]} == py.link_pos[tau]


@pytest.mark.needs_cc
@pytest.mark.parametrize("record_events", [True, False])
@pytest.mark.parametrize("record_configs", [True, False])
def test_equal_with_and_without_recording(monkeypatch, record_events, record_configs):
    cfg = random_config(np.random.default_rng(3), 40, 0.5, 0.3)
    py = assert_same(monkeypatch, cfg, RATES, 2.0, 11, sample_dt=0.25,
                     record_events=record_events, record_configs=record_configs)
    assert len(py.times) == 9
    kinds = {e[1] for e in py.events}
    assert kinds == ({"flip", "create", "remove"} if record_events else set())


@pytest.mark.needs_cc
def test_equal_on_random_small_cases(monkeypatch):
    """Random sizes, states, densities, horizons and grids; some rates zero
    and some integer-valued."""
    rng = np.random.default_rng(7)
    for case in range(60):
        N = int(rng.integers(2, 25))
        cfg = random_config(rng, N, rng.random(), rng.random())
        vals = rng.uniform(0.0, 3.0, 8) * (rng.random(8) < 0.7)
        if case % 3 == 0:
            vals = np.round(vals)
        T = float(rng.choice([0.3, 1.0, 3.0]))
        sample_dt = None if case % 4 == 0 else float(rng.choice([0.1, 0.25, 0.7]))
        assert_same(monkeypatch, cfg, MinimalParams(*vals.tolist()), T, case,
                    sample_dt=sample_dt, record_events=True)


@pytest.mark.needs_cc
def test_equal_through_zero_rate_channels(monkeypatch):
    # no flips and no cross creation; the other channels are live
    p = MinimalParams(beta_pp=1.0, beta_mm=2.0, gamma_pp=0.5, gamma_pm=1.5)
    cfg = random_config(np.random.default_rng(5), 30, 0.5, 0.4)
    py = assert_same(monkeypatch, cfg, p, 3.0, 2, sample_dt=0.5, record_events=True)
    assert py.events and all(e[1] != "flip" for e in py.events)


@pytest.mark.needs_cc
def test_equal_into_absorbing_state(monkeypatch):
    # only cross links are removed: once the last one is gone the total rate
    # is zero and time fast-forwards to T
    p = MinimalParams(alpha_pm=0.5, gamma_pm=2.0)
    cfg = config([1, -1, 1, -1, 1], [(0, 1), (1, 2), (2, 3), (0, 2)])
    py = assert_same(monkeypatch, cfg, p, 50.0, 4, sample_dt=5.0, record_events=True)
    assert py.times[-1] == 50.0
    final = py.configs[-1].weights
    states = py.configs[-1].states
    assert not np.any(final[states == 1][:, states == -1])


@pytest.mark.needs_cc
def test_equal_without_grid_and_at_zero_horizon(monkeypatch):
    cfg = random_config(np.random.default_rng(9), 20, 0.5, 0.3)
    py = assert_same(monkeypatch, cfg, RATES, 1.5, 3, sample_dt=None, record_events=True)
    assert py.times == [0.0, 1.5]
    for sample_dt in (None, 0.5):
        py = assert_same(monkeypatch, cfg, RATES, 0.0, 3, sample_dt=sample_dt,
                         record_events=True)
        assert py.times == [0.0] and py.events == []


@pytest.mark.needs_cc
def test_equal_with_event_buffer_refills(monkeypatch):
    # more events than the 4096 the compiled engine once buffered between
    # returns to python
    cfg = random_config(np.random.default_rng(1), 80, 0.5, 0.3)
    py = assert_same(monkeypatch, cfg, RATES, 5.0, 8, sample_dt=0.1, record_events=True)
    assert len(py.events) > 4096


def run_failing(cfg, T, seed, k):
    """Run the engine of _native.LIB with a record_until that raises on its
    k-th call (the first is the run's record_until(0.0); never for k = 0).
    Returns the exception (None if none was raised), the samples (time,
    moments), the events, the final generator state and W, and the number
    of record_until calls."""
    eng = jumpsim._gillespie_engine(cfg, RATES)
    rng = np.random.default_rng(seed)
    samples, events, calls = [], [], []
    record_until = jumpsim._grid_recorder(
        sample_times(T, 0.1), lambda t: samples.append((t, eng.moments().tolist())))

    def failing(t):
        calls.append(t)
        if len(calls) == k:
            raise LookupError("record_until failed", k)
        return record_until(t)
    raised = None
    try:
        eng.run(T, rng, failing, events)
    except LookupError as exc:
        raised = (type(exc), exc.args)
    return raised, samples, events, rng.bit_generator.state, eng.W.tolist(), len(calls)


@pytest.mark.needs_cc
def test_a_failing_record_until_stops_both_engines_alike(monkeypatch):
    """At each of its calls, a record_until that raises makes both engines
    raise its exception, after the same samples and events, with the same
    generator state and links."""
    cfg = random_config(np.random.default_rng(4), 30, 0.5, 0.3)
    n_calls = run_failing(cfg, 2.0, 5, 0)[-1]
    assert n_calls > 10
    for k in range(1, n_calls + 1):
        got = []
        for lib in (_native.LIB, None):
            monkeypatch.setattr(_native, "LIB", lib)
            got.append(run_failing(cfg, 2.0, 5, k))
        assert got[0] == got[1]
        assert got[0][0] == (LookupError, ("record_until failed", k)) and got[0][-1] == k


@pytest.mark.needs_cc
def test_events_must_be_a_list_or_none():
    cfg = random_config(np.random.default_rng(4), 10, 0.5, 0.3)
    eng = jumpsim._CMinimalEngine(_native.LIB, cfg, RATES)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(TypeError, match="events must be a list or None"):
        eng.run(1.0, rng, lambda t: np.inf, ())
    assert rng.bit_generator.state == state


@pytest.mark.needs_cc
def test_equal_through_dense_type_enumeration(monkeypatch, count_enumerations):
    # all plus, 21 unlinked pairs of 435: the first creation is at the
    # rejection threshold U = P // 20, later ones below it enumerate the open
    # pairs
    p = MinimalParams(beta_pp=5.0, gamma_pp=0.02)
    members = list(range(30))
    edges = complete_edges(members)
    del edges[::21]
    assert len(edges) == 435 - 21
    py = assert_same(monkeypatch, config([1] * 30, edges), p, 40.0, 6, sample_dt=4.0,
                     record_events=True)
    assert count_enumerations
    assert sum(e[1] == "create" for e in py.events) >= 5


@pytest.mark.needs_cc
def test_equal_when_rejection_sampling_gives_up(monkeypatch, count_enumerations):
    # nine linked plus agents, creation much faster than removal: creations
    # mostly see one open pair of 36, at the rejection threshold
    # max(1, 36 // 20), and hit it in a try with chance 2/81, so some of them
    # fail all 200 tries and fall back to enumeration
    p = MinimalParams(beta_pp=50.0, gamma_pp=1.0)
    members = list(range(9))
    py = assert_same(monkeypatch, config([1] * 9 + [-1] * 3, complete_edges(members)), p,
                     20.0, 12, sample_dt=1.0, record_events=True)
    assert count_enumerations
    assert sum(e[1] == "create" for e in py.events) > 100


@pytest.mark.parametrize("engine", ["compiled", "python"])
def test_first_event_follows_the_per_agent_rate_table(monkeypatch, engine):
    """The engines' aggregated channels against ``minimal_rates``, the
    per-agent statement of the rates: the first event time gives the total
    rate, -log(1 - u1) / t1, and the channel the second draw picks, u2 total
    against the table's flip, create and remove sums, is the first event's
    kind.  Every pair type that has pairs has an open one, so the create
    channel always finds a pair."""
    if engine == "python":
        monkeypatch.setattr(_native, "LIB", None)
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 100:
        N = int(rng.integers(2, 12))
        cfg = random_config(rng, N, rng.random(), rng.random())
        plus = cfg.states == 1
        pair_type = np.where(plus[:, None] != plus[None, :], 2, np.where(plus, 0, 1)[:, None])
        pair_type[np.tril_indices(N)] = -1   # each unordered pair once
        open_type = np.where(cfg.weights == 0, pair_type, -1)
        if set(np.unique(open_type)) != set(np.unique(pair_type)):
            continue
        p = MinimalParams(*rng.uniform(0.1, 3.0, 8).tolist())
        table = minimal_rates(cfg, p)
        seed = int(rng.integers(2**32))
        u1, u2 = np.random.default_rng(seed).random(2)
        t1 = -np.log(1.0 - u1) / table.total
        traj = simulate_minimal(cfg, p, T=2.0 * t1, seed=seed, record_events=True,
                                record_configs=False)
        t, kind = traj.events[0][:2]
        assert -np.log(1.0 - u1) / t == pytest.approx(table.total, rel=1e-14)
        sums = np.cumsum([table.flip_rates.sum(), table.create_rates.sum(),
                          table.remove_rates.sum()])
        assert kind == ("flip", "create", "remove")[int(np.searchsorted(sums, u2 * table.total,
                                                                        side="right"))]
        checked += 1


@pytest.mark.needs_cc
def test_above_the_size_limit_the_python_engine_runs(monkeypatch):
    """With _C_ENGINE_MAX_N at 8, N = 9 runs _MinimalEngine.run and N = 8 the
    compiled engine; each gives the trajectory of the other engine."""
    ran = []
    for cls in (jumpsim._MinimalEngine, jumpsim._CMinimalEngine):
        def spied(self, *args, run=cls.run, name=cls.__name__):
            ran.append(name)
            return run(self, *args)
        monkeypatch.setattr(cls, "run", spied)
    rng = np.random.default_rng(23)
    cfg9, cfg8 = random_config(rng, 9, 0.5, 0.4), random_config(rng, 8, 0.5, 0.4)

    def run(cfg):
        return simulate_minimal(cfg, RATES, T=2.0, seed=cfg.N, sample_dt=0.5,
                                record_events=True)
    with monkeypatch.context() as m:
        m.setattr(jumpsim, "_C_ENGINE_MAX_N", 8)
        limited = [run(cfg9), run(cfg8)]
    compiled_9 = run(cfg9)
    monkeypatch.setattr(_native, "LIB", None)
    python_8 = run(cfg8)
    assert ran == ["_MinimalEngine", "_CMinimalEngine", "_CMinimalEngine", "_MinimalEngine"]
    for a, b in zip(limited, (compiled_9, python_8)):
        assert a.events and a.events == b.events and a.times == b.times
        assert np.array_equal(a.moments, b.moments)
        assert all(np.array_equal(x.weights, y.weights) for x, y in zip(a.configs, b.configs))


def test_missing_compiler_gives_one_warning_and_python_paths(tmp_path, caplog, monkeypatch):
    missing = str(tmp_path / "no-such-cc")
    with caplog.at_level(logging.WARNING, logger="coevnet._native"):
        lib = _native.load_library(missing)
    assert lib is None
    warnings = [rec for rec in caplog.records if rec.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert missing in warnings[0].getMessage()
    monkeypatch.setattr(_native, "LIB", lib)
    ran = []
    for owner, name in ((closures, "_closure_loop_py"), (jumpsim._MinimalEngine, "run")):
        def spied(*args, fn=getattr(owner, name), name=name):
            ran.append(name)
            return fn(*args)
        monkeypatch.setattr(owner, name, spied)
    y0 = np.array([0.2, 0.1, 0.2, 0.1, 0.1, 0.1])
    closures._integrate_loop(y0, np.ones(8), 0, 1e-3, 10, 1, closures.DELTA_CONSENSUS,
                             closures.NEG_CLAMP_TOL)
    simulate_minimal(random_config(np.random.default_rng(3), 6, 0.5, 0.4), RATES, T=1.0, seed=3)
    assert ran == ["_closure_loop_py", "run"]
