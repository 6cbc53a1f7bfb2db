"""Byte identity of the CSV writers against a per-row oracle.

The oracle below is the row-by-row formatting the writers used before they
shared one table writer: every float through ``f"{float(x):.17g}"``, every
row built on its own. Each ``write_*`` must produce exactly its bytes.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevnet import io

MOMENTS = ["f_pp", "g_pp", "f_mm", "g_mm", "f_pm", "g_pm"]


# ----------------------------------------------------------------- oracle

def fmt(x) -> str:
    return f"{float(x):.17g}"


def oracle_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def oracle_states(times, configs, masses=None) -> str:
    first = np.asarray(configs[0], dtype=float)
    if first.ndim == 1:
        first = first[:, None]
    header = ["t", "i"] + [f"s{k}" for k in range(first.shape[1])]
    if masses is not None:
        header.append("mass")
    lines = [",".join(header)]
    for t, snap in zip(times, configs):
        arr = np.asarray(snap, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        for i in range(arr.shape[0]):
            row = [fmt(t), str(i)] + [fmt(v) for v in arr[i]]
            if masses is not None:
                row.append(fmt(masses[i]))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def oracle_weights(times, weight_mats) -> str:
    lines = ["t,i,j,w"]
    for t, W in zip(times, weight_mats):
        W = np.asarray(W, dtype=float)
        N = W.shape[0]
        for i in range(N):
            for j in range(N):
                if i != j:
                    lines.append(f"{fmt(t)},{i},{j},{fmt(W[i, j])}")
    return "\n".join(lines) + "\n"


def oracle_events(events) -> str:
    lines = ["t,event,i,j"]
    for t, kind, i, j in events:
        lines.append(f"{fmt(t)},{kind},{i},{j}")
    return "\n".join(lines) + "\n"


def oracle_moments(times, moments) -> str:
    lines = [",".join(["t"] + MOMENTS)]
    for t, row in zip(times, np.asarray(moments, dtype=float)):
        lines.append(",".join([fmt(t)] + [fmt(v) for v in row]))
    return "\n".join(lines) + "\n"


def oracle_closure(traj) -> str:
    lines = [",".join(["t"] + MOMENTS + ["rho_p", "h_pp", "h_mm", "h_pm"])]
    y = traj.moments
    for k, t in enumerate(traj.times):
        extra = [traj.rho_p[k], y[k, 0] + y[k, 1], y[k, 2] + y[k, 3], y[k, 4] + y[k, 5]]
        lines.append(",".join([fmt(t)] + [fmt(v) for v in y[k]] + [fmt(v) for v in extra]))
    return "\n".join(lines) + "\n"


def oracle_error_curves(report) -> str:
    header = ["t"] + [f"err_cond_{n}" for n in MOMENTS] + [f"err_kirk_{n}" for n in MOMENTS] \
        + [f"stderr_{n}" for n in MOMENTS]
    lines = [",".join(header)]
    n = min(report.err_conditional.shape[0], report.err_kirkwood.shape[0])
    for k in range(n):
        vals = ([report.times[k]] + list(report.err_conditional[k])
                + list(report.err_kirkwood[k]) + list(report.stderr_moments[k]))
        lines.append(",".join(fmt(v) for v in vals))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- inputs

def _bits(*patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


# -0.0 next to 0.0, subnormals, huge values, infinities and NaNs with
# different payloads and signs
SPECIAL = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, np.inf, -np.inf,
     np.nan, 0.1, 1 / 3, 1e16, 1e17, 1.5e-7, 100.0],
    _bits(0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001),
])


def _read(path) -> str:
    with open(path) as f:
        return f.read()


def _mirror(W):
    """Copy the upper triangle onto the lower one, bit for bit."""
    lower = np.tril_indices(len(W), -1)
    W[lower] = W.T[lower]


def _random_matrix(rng, N, symmetric, plant=False):
    W = rng.standard_normal((N, N)) * 10.0 ** rng.integers(-3, 4, size=(N, N))
    if plant:
        W.flat[rng.choice(N * N, size=min(len(SPECIAL), N * N), replace=False)] = \
            SPECIAL[:min(len(SPECIAL), N * N)]
    if symmetric:
        _mirror(W)
    np.fill_diagonal(W, 0.0)
    return W


# ----------------------------------------------------------------- weights

@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("plant", [False, True])
def test_weights_match_the_oracle_on_float_matrices(tmp_path, symmetric, plant):
    rng = np.random.default_rng(1 + symmetric + 2 * plant)
    times = [0.0, 0.1, 0.30000000000000004, 1e-300]
    mats = [_random_matrix(rng, 9, symmetric, plant) for _ in times]
    io.write_weights_csv(tmp_path / "w.csv", times, mats)
    assert _read(tmp_path / "w.csv") == oracle_weights(times, mats)


def test_weights_keep_negative_zero_apart_from_zero(tmp_path):
    W = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, 0.0, -0.0]])
    io.write_weights_csv(tmp_path / "w.csv", [-0.0], [W])
    text = _read(tmp_path / "w.csv")
    assert text == oracle_weights([-0.0], [W])
    assert text.splitlines()[1:3] == ["-0,0,1,-0", "-0,0,2,0"]


def test_weights_of_binary_matrices_and_varying_sizes(tmp_path):
    rng = np.random.default_rng(7)
    mats = []
    for N in (2, 5, 2, 0, 1, 5):
        A = np.triu(rng.integers(0, 2, size=(N, N)), 1).astype(np.int8)
        mats.append(A + A.T)
    times = [0, 0.5, 1, 1.5, 2.0, np.float64(2.5)]
    io.write_weights_csv(tmp_path / "w.csv", times, mats)
    assert _read(tmp_path / "w.csv") == oracle_weights(times, mats)


def test_weights_stop_at_the_shorter_of_times_and_matrices(tmp_path):
    mats = [np.ones((3, 3)), 2 * np.ones((3, 3))]
    io.write_weights_csv(tmp_path / "a.csv", [0.0], mats)
    io.write_weights_csv(tmp_path / "b.csv", [0.0, 1.0, 2.0], mats)
    assert _read(tmp_path / "a.csv") == oracle_weights([0.0], mats)
    assert _read(tmp_path / "b.csv") == oracle_weights([0.0, 1.0, 2.0], mats)


def test_chunks_longer_than_a_write_block_and_two_sizes_in_one_process(tmp_path):
    # a weights chunk at N=70 has 4830 rows, more than one block of rows; the
    # N=3 file between the two N=70 files checks that nothing of one size's
    # row keys leaks into the other's
    assert 70 * 69 > io._BLOCK_ROWS
    rng = np.random.default_rng(11)
    for name, N in (("a.csv", 70), ("b.csv", 3), ("c.csv", 70)):
        times = [0.0, -0.0, 0.75]
        mats = [_random_matrix(rng, N, symmetric=k != 1, plant=k == 2) for k in range(3)]
        io.write_weights_csv(tmp_path / name, times, mats)
        assert _read(tmp_path / name) == oracle_weights(times, mats)

    n = 2 * io._BLOCK_ROWS + 5
    configs = [rng.standard_normal((n, 2)), rng.standard_normal((n, 2))]
    configs[1][io._BLOCK_ROWS - 1:io._BLOCK_ROWS + len(SPECIAL) - 1, 0] = SPECIAL
    masses = rng.dirichlet(np.ones(n))
    io.write_states_csv(tmp_path / "s.csv", [0.5, 1.0], configs, masses=masses)
    assert _read(tmp_path / "s.csv") == oracle_states([0.5, 1.0], configs, masses)

    times, moments = np.linspace(0.0, 1.0, n), rng.random((n, 6))
    io.write_moments_csv(tmp_path / "m.csv", times, moments)
    assert _read(tmp_path / "m.csv") == oracle_moments(times, moments)


# ----------------------------------------------------------------- states

@pytest.mark.parametrize("m", [None, 1, 2])
@pytest.mark.parametrize("with_masses", [False, True])
def test_states_match_the_oracle(tmp_path, m, with_masses):
    rng = np.random.default_rng(3)
    N = 7
    shape = (N,) if m is None else (N, m)
    times = [0.0, 0.25, 0.5]
    configs = [rng.standard_normal(shape) for _ in times]
    configs[1].flat[:len(SPECIAL[:N])] = SPECIAL[:N]
    masses = rng.dirichlet(np.ones(N)) if with_masses else None
    io.write_states_csv(tmp_path / "s.csv", times, configs, masses=masses)
    assert _read(tmp_path / "s.csv") == oracle_states(times, configs, masses)


def test_states_of_integer_spins_use_the_first_N_masses(tmp_path):
    configs = [np.array([1, -1, 1], dtype=np.int8), np.array([-1, -1, 1], dtype=np.int8)]
    io.write_states_csv(tmp_path / "s.csv", [0, 1], configs, masses=[1, 2, 3, 4])
    assert _read(tmp_path / "s.csv") == oracle_states([0, 1], configs, [1, 2, 3, 4])


def test_states_refuse_too_few_masses_and_leave_nothing(tmp_path):
    with pytest.raises(ValueError):
        io.write_states_csv(tmp_path / "s.csv", [0.0], [np.zeros(4)], masses=[0.5, 0.5])
    assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------- events

def test_events_match_the_oracle(tmp_path):
    events = [(0.1, "flip", 3, -1), (np.float64(0.2), "create", np.int64(0), np.int64(4)),
              (0.30000000000000004, "remove", 2, 1), (1e-300, "flip", 0, -1)]
    io.write_events_csv(tmp_path / "e.csv", events)
    assert _read(tmp_path / "e.csv") == oracle_events(events)


def test_events_span_several_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_EVENTS_PER_CHUNK", 3)
    events = [(k / 7, ("flip", "create", "remove")[k % 3], k, -1 if k % 3 == 0 else k + 1)
              for k in range(10)]
    io.write_events_csv(tmp_path / "e.csv", iter(events))
    assert _read(tmp_path / "e.csv") == oracle_events(events)


# ----------------------------------------------------------------- small tables

def test_moments_closure_error_curves_and_csv_match_the_oracle(tmp_path):
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 6)
    moments = rng.random((6, 6))
    moments[2, :] = SPECIAL[:6]
    io.write_moments_csv(tmp_path / "m.csv", times, moments)
    assert _read(tmp_path / "m.csv") == oracle_moments(times, moments)
    io.write_moments_csv(tmp_path / "m2.csv", list(times[:4]), moments)
    assert _read(tmp_path / "m2.csv") == oracle_moments(list(times[:4]), moments)

    traj = SimpleNamespace(times=times, moments=moments, rho_p=rng.random(6))
    io.write_closure_csv(tmp_path / "c.csv", traj)
    assert _read(tmp_path / "c.csv") == oracle_closure(traj)

    report = SimpleNamespace(times=times, err_conditional=rng.random((6, 6)),
                             err_kirkwood=rng.random((4, 6)), stderr_moments=rng.random((6, 6)))
    report.err_kirkwood[1, 1] = -0.0
    io.write_error_curves_csv(tmp_path / "ec.csv", report)
    assert _read(tmp_path / "ec.csv") == oracle_error_curves(report)

    rows = [(0.1, 1e-300), (np.float32(0.5), -0.0), (3, "x"), (np.inf, np.nan), (2.5,),
            (1, 2.0, True)]
    io.write_csv(tmp_path / "g.csv", ["eps", "gap"], rows)
    assert _read(tmp_path / "g.csv") == oracle_csv(["eps", "gap"], rows)


def test_zero_row_tables_are_the_header_line_alone(tmp_path):
    io.write_events_csv(tmp_path / "e.csv", [])
    io.write_csv(tmp_path / "g.csv", ["eps", "gap"], [])
    io.write_moments_csv(tmp_path / "m.csv", [], np.zeros((0, 6)))
    io.write_weights_csv(tmp_path / "w.csv", [0.0], [np.zeros((1, 1))])
    assert _read(tmp_path / "e.csv") == "t,event,i,j\n" == oracle_events([])
    assert _read(tmp_path / "g.csv") == "eps,gap\n" == oracle_csv(["eps", "gap"], [])
    assert _read(tmp_path / "m.csv") == oracle_moments([], np.zeros((0, 6)))
    assert _read(tmp_path / "w.csv") == "t,i,j,w\n"


def test_cli_run_without_events_writes_the_events_header_alone(tmp_path):
    from coevnet.cli import main
    cfg = {"kind": "minimal", "seed": 22, "N": 6, "T": 0.0, "sample_dt": 0.5,
           "record_events": True,
           "rates": {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 0.5, "beta_mm": 0.5,
                     "beta_pm": 0.2, "gamma_pp": 0.5, "gamma_mm": 0.5, "gamma_pm": 1.0},
           "init": {"rho_p": 0.5, "p_pp": 0.4, "p_mm": 0.4, "p_pm": 0.2}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "events.csv").read_text() == "t,event,i,j\n"


# ----------------------------------------------------------------- atomic replace

def test_a_chunk_that_raises_leaves_no_temporary_and_the_old_file(tmp_path):
    target = tmp_path / "t.csv"
    target.write_bytes(b"old bytes\n")

    def chunks():
        yield "t,i\n"
        yield "0,1\n" * 1000
        raise RuntimeError("chunk failed")
    with pytest.raises(RuntimeError, match="chunk failed"):
        io._atomic_write(str(target), chunks())
    assert os.listdir(tmp_path) == ["t.csv"]
    assert target.read_bytes() == b"old bytes\n"


def test_a_table_that_fails_after_its_first_chunk_leaves_the_old_file(tmp_path):
    target = tmp_path / "w.csv"
    target.write_bytes(b"old bytes\n")

    def mats():
        yield np.ones((3, 3))
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        io.write_weights_csv(str(target), [0.0, 1.0], mats())
    assert os.listdir(tmp_path) == ["w.csv"]
    assert target.read_bytes() == b"old bytes\n"


def test_json_numpy_values(tmp_path):
    obj = {"a": np.float64(0.1), "b": np.int64(3), "c": np.array([[1.5, -0.0]]),
           "d": np.float32(0.5), "e": [np.int8(-2)]}
    io.write_json(tmp_path / "x.json", obj)
    assert json.loads(_read(tmp_path / "x.json")) == {
        "a": 0.1, "b": 3, "c": [[1.5, -0.0]], "d": 0.5, "e": [-2]}


# ----------------------------------------------------------------- property

floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.sampled_from([0.0, -0.0, 1.0, 0.5]))


@st.composite
def weight_streams(draw):
    samples = []
    for _ in range(draw(st.integers(0, 3))):
        N = draw(st.integers(0, 5))
        values = draw(st.lists(floats, min_size=N * N, max_size=N * N))
        W = np.array(values, dtype=float).reshape(N, N)
        if draw(st.booleans()):
            _mirror(W)
        samples.append((draw(floats), W))
    return samples


@settings(max_examples=60)
@given(weight_streams(), st.lists(floats, min_size=1, max_size=4))
def test_writers_match_the_oracle_on_random_values(tmp_path_factory, samples, masses):
    d = tmp_path_factory.mktemp("prop")
    times = [t for t, _ in samples]
    mats = [W for _, W in samples]
    io.write_weights_csv(d / "w.csv", times, mats)
    assert _read(d / "w.csv") == oracle_weights(times, mats)
    states = [np.array(masses[::-1]), np.array(masses)]
    io.write_states_csv(d / "s.csv", masses[:2], states, masses=masses)
    assert _read(d / "s.csv") == oracle_states(masses[:2], states, masses)
