"""The C renderer of numeric CSV rows against python's ``"%.17g"``.

``io._render_rows`` (the ``coevnet_format_rows`` kernel) must print every
float64 exactly as ``"%.17g" % x`` does and every chunk exactly as the python
path ``io._python_rows`` does, which is also what the package writes when
there is no compiler.  Also here: the modes of written artifacts and a
warning-free build of the kernel source.
"""

import hashlib
import json
import os
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevnet import _native, closures, io, jumpsim, microsim
from coevnet.cli import main
from test_cli_bytes import CONFIGS, PINNED

needs_renderer = pytest.mark.skipif(io._render_rows is None, reason="no compiled kernels")


def c_format(values) -> list[str]:
    """Each value through the C renderer, one row per value."""
    x = np.ascontiguousarray(values, dtype=float)
    text = b"".join(bytes(b) for b in io._render_rows(["", "\n"], [x])) if len(x) else b""
    return text.decode().split("\n")[:-1]


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=float)
    got = c_format(values)
    bad = [(v, g, "%.17g" % v) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
    assert len(got) == len(values) and not bad, bad[:5]


# ----------------------------------------------------------------- the formatter

@needs_renderer
@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_float_formats_like_python(values):
    assert_formats_like_python(values)


def _ties(rng, per_decade=2000):
    """Doubles whose exact decimal has 18 significant digits, the last a 5:
    a 2^-(17 - d) with a odd lies in [10^d, 10^(d + 1)) and has 17 - d
    decimals, so its 17-digit rounding is an exact tie.  Below d = -8 no
    odd a < 10^(d + 1) 2^(17 - d) exists, and from d = 16 on, a >= 2^53."""
    out = []
    for d in range(-8, 16):
        p = 17 - d
        lo, hi = 10.0 ** d * 2.0 ** p, min(10.0 ** (d + 1) * 2.0 ** p, 2.0 ** 53)
        a = rng.integers(int(max(lo, 1)), int(hi), size=per_decade) | 1
        x = np.ldexp(a.astype(float), -p)
        out.append(x[(x >= 10.0 ** d) & (x < 10.0 ** (d + 1))])
    return np.concatenate(out)


def _neighbours(x, steps=3):
    """x and its first `steps` neighbours on both sides."""
    out = [x]
    up = down = x
    for _ in range(steps):
        with np.errstate(over="ignore"):   # the largest double's next is inf
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@needs_renderer
def test_dense_families_format_like_python():
    rng = np.random.default_rng(20190601)
    ties = _ties(rng)
    from decimal import Decimal
    assert all(len(Decimal(v).as_tuple().digits) == 18 for v in ties[::97].tolist())
    with np.errstate(over="ignore"):
        powers = 10.0 ** np.arange(-330, 310)
    powers = powers[np.isfinite(powers) & (powers > 0)]
    biggest = np.finfo(float).max
    families = {
        "ties": ties,
        "powers of ten": _neighbours(powers),
        # the fast path's edges: k = 0 for [1e16, 1e17), k = 27 for [1e-11, 1e-10)
        "k = 0": np.concatenate([rng.uniform(1e16, 1e17, 20000),
                                 _neighbours(np.array([1e16, 1e17]), 50)]),
        "k = 27": np.concatenate([rng.uniform(1e-11, 1e-10, 20000),
                                  _neighbours(np.array([1e-11, 1e-10]), 50)]),
        "subnormal": np.concatenate([
            rng.integers(1, 1 << 52, size=20000, dtype=np.uint64).view(np.float64),
            _neighbours(np.array([5e-324, np.finfo(float).smallest_normal]), 20)]),
        "largest": _neighbours(np.array([biggest, 2.0 ** 1023]), 50),
        "integers": np.concatenate([np.arange(-3000.0, 3000.0),
                                    rng.integers(-2 ** 53, 2 ** 53, size=20000).astype(float),
                                    _neighbours(np.array([2.0 ** 53, 1e15, 1e16]), 20)]),
        "random bits": rng.integers(0, 2 ** 64, size=100000, dtype=np.uint64).view(np.float64),
        "specials": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-4, 1e-5,
                              0.5, 0.1, 1 / 3, 2 / 3]),
    }
    for name, values in families.items():
        values = np.concatenate([values, -values])
        got = c_format(values)
        bad = [(v, g) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
        assert len(got) == len(values) and not bad, (name, bad[:5])


@needs_renderer
def test_nan_prints_without_its_sign():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    assert c_format(nans) == ["nan"] * 4


# ----------------------------------------------------------------- the renderer

def _column(rng, n):
    """n float64 values of mixed magnitudes, some special, as a view that is
    contiguous, strided or reversed."""
    base = rng.standard_normal(3 * n) * 10.0 ** rng.integers(-14, 19, size=3 * n)
    ints = rng.random(3 * n) < 0.1
    base[ints] = rng.integers(-300, 300, size=ints.sum())
    special = rng.random(3 * n) < 0.02
    base[special] = rng.choice([0.0, -0.0, np.nan, -np.inf, 5e-324, 1e300], size=special.sum())
    kind = rng.integers(3)
    return base[:n] if kind == 0 else base[::3] if kind == 1 else base[::-1][:n]


def _random_table(rng):
    ncols = int(rng.integers(1, 6))
    chunks = []
    for _ in range(int(rng.integers(0, 4))):
        n = int(rng.choice([0, 1, 7, io._BLOCK_ROWS, io._BLOCK_ROWS + 3]))
        columns = [float(rng.standard_normal()) if rng.random() < 0.3 else _column(rng, n)
                   for _ in range(ncols)]
        if all(isinstance(c, float) for c in columns):
            columns[-1] = _column(rng, n)
        chunks.append(columns)
    return [f"c{k}" for k in range(ncols)], chunks


@needs_renderer
def test_random_numeric_tables_render_the_same_bytes_on_both_paths(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    tables = [_random_table(rng) for _ in range(12)]
    for k, (header, chunks) in enumerate(tables):
        io._write_table(tmp_path / f"c{k}.csv", header, chunks)
    monkeypatch.setattr(io, "_render_rows", None)
    for k, (header, chunks) in enumerate(tables):
        io._write_table(tmp_path / f"p{k}.csv", header, chunks)
        assert (tmp_path / f"c{k}.csv").read_bytes() == (tmp_path / f"p{k}.csv").read_bytes()


@needs_renderer
@pytest.mark.parametrize("columns", [[np.zeros(3, dtype=np.float32)], [np.zeros((3, 1))],
                                     [np.zeros(3), np.zeros(2)]])
def test_renderer_refuses_columns_it_cannot_read(columns):
    with pytest.raises(ValueError, match="1-D float64 columns of one length"):
        next(io._render_rows(["", ","] + [","] * (len(columns) - 1), columns))


@needs_renderer
def test_writers_use_the_renderer_for_numeric_chunks(tmp_path, monkeypatch):
    calls = []
    render = io._render_rows
    monkeypatch.setattr(io, "_render_rows", lambda *a: calls.append(1) or render(*a))
    io.write_weights_csv(tmp_path / "w.csv", [0.0], [np.ones((4, 4))])
    io.write_states_csv(tmp_path / "s.csv", [0.0], [np.zeros((3, 2))], masses=[1, 2, 3])
    assert len(calls) == 2
    io.write_events_csv(tmp_path / "e.csv", [(0.1, "flip", 1, -1)])   # string cells
    assert len(calls) == 2
    assert (tmp_path / "w.csv").read_text().splitlines()[1:3] == ["0,0,1,1", "0,0,2,1"]


def test_runs_without_compiled_kernels_write_the_pinned_bytes(tmp_path, monkeypatch):
    # the python paths the package takes when _native.LIB is None
    pinned = json.loads(PINNED.read_text())
    if np.__version__ != pinned["numpy"]:
        pytest.skip(f"hashes were made with numpy {pinned['numpy']}, this is {np.__version__}")
    monkeypatch.setattr(io, "_render_rows", io._bind_rows(None))
    monkeypatch.setattr(closures, "_integrate_loop", closures._bind_loop(None))
    monkeypatch.setattr(jumpsim, "_gillespie_engine", jumpsim._bind_engine(None))
    monkeypatch.setattr(microsim, "_micro_flow", microsim._bind_flow(None))
    monkeypatch.setattr(microsim, "_flow_pairs", microsim._bind_pairs(None))
    checked = 0
    for name in ("micro", "minimal", "closure"):
        (tmp_path / f"{name}.json").write_text(json.dumps(CONFIGS[name]))
        out = tmp_path / name
        assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0, name
        for csv in sorted(out.rglob("*.csv")):
            key = f"{name}/{csv.relative_to(out).as_posix()}"
            assert hashlib.sha256(csv.read_bytes()).hexdigest() == pinned["sha256"][key], key
            checked += 1
    assert checked == 7


# ----------------------------------------------------------------- artifacts

def _process_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_artifacts_get_the_mode_of_the_process_umask(tmp_path):
    assert io._UMASK == _process_umask()
    (tmp_path / "cfg.json").write_text(json.dumps({"sweep": [CONFIGS["micro"]]}))
    assert main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
    files = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert {p.name for p in files} >= {"weights.csv", "states.csv", "manifest.json"}
    assert {p.name: p.stat().st_mode & 0o777 for p in files} == \
        {p.name: 0o666 & ~io._UMASK for p in files}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_artifact_mode_follows_the_umask(tmp_path, monkeypatch, umask, mode):
    monkeypatch.setattr(io, "_UMASK", umask)
    io.write_weights_csv(tmp_path / "w.csv", [0.0], [np.ones((3, 3))])
    io.write_json(tmp_path / "error.json", {"error": "x"})
    assert (tmp_path / "w.csv").stat().st_mode & 0o777 == mode
    assert (tmp_path / "error.json").stat().st_mode & 0o777 == mode


# ----------------------------------------------------------------- the kernel source

@pytest.mark.needs_cc
def test_kernel_source_compiles_without_warnings():
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                           _native._C_SOURCE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
