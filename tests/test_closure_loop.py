"""The compiled closure loop against its pure-python reference, and the
building and loading of the compiled kernels by ``_native``.

The C loop must reproduce its numpy twin ``closures._closure_loop_py`` bit
for bit: the same records, record steps, status, clamp count and steps
done.  With ``_native.LIB`` set to None every CLI run writes its pinned
bytes through the five references.
"""

import hashlib
import json
import logging
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coevnet import _native, _pool, closures, io, jumpsim, microsim
from coevnet.cli import main
from coevnet.closures import DELTA_CONSENSUS, NEG_CLAMP_TOL
from test_cli_bytes import CONFIGS, PINNED


def criterion_01_cases():
    """The initial moments and rates of acceptance criterion 01."""
    rng = np.random.default_rng(101)
    cases = []
    for k in range(20):
        r = rng.uniform(0.05, 2.0, size=8)
        if k < 10:
            r[1] = r[0]
        raw = rng.random(6) + 0.02
        raw /= raw[0] + raw[1] + raw[2] + raw[3] + 2 * raw[4] + 2 * raw[5]
        cases.append((raw, r))
    return cases


def normalized(y):
    y = np.asarray(y, dtype=float)
    return y / (y[:4].sum() + 2 * y[4:].sum())


def python_loop(*args):
    """closures._integrate_loop on the twin, _closure_loop_py."""
    with mock.patch.object(_native, "LIB", None):
        return closures._integrate_loop(*args)


def assert_same_run(args):
    with np.errstate(all="ignore"):
        c = closures._integrate_loop(*args)
        py = python_loop(*args)
    assert c[2:] == py[2:]
    n_rec = py[2]
    assert np.array_equal(c[0][:n_rec], py[0][:n_rec])
    assert np.array_equal(c[1][:n_rec], py[1][:n_rec])
    return py[2:]


@pytest.mark.needs_cc
def test_compiled_loop_is_in_use(monkeypatch):
    assert _native.LIB is not None
    monkeypatch.setattr(closures, "_closure_loop_py", None)   # calling it would fail
    y0, r = criterion_01_cases()[0]
    closures._integrate_loop(y0, r, 0, 1e-3, 10, 1, DELTA_CONSENSUS, NEG_CLAMP_TOL)


@pytest.mark.needs_cc
@pytest.mark.parametrize("kirk", [0, 1])
def test_bitwise_equal_on_criterion_01_cases(kirk):
    for y0, r in criterion_01_cases():
        n_rec, status, clamped, steps_done = assert_same_run(
            (y0, r, kirk, 1e-3, 2000, 50, DELTA_CONSENSUS, NEG_CLAMP_TOL))
        assert (n_rec, status, clamped, steps_done) == (41, 0, 0, 2000)


# (y0, rates, dt, n_steps, delta, neg_tol, expected status); rates are
# (a_pm, a_mp, b_pp, b_mm, b_pm, c_pp, c_mm, c_pm)
EDGE_CASES = {
    # unequal flip rates drive rho_+ to the consensus threshold
    "consensus": (normalized([0.1, 0.1, 0.1, 0.1, 0.15, 0.15]),
                  [3.0, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5], 1e-2, 3000,
                  DELTA_CONSENSUS, NEG_CLAMP_TOL, 1),
    # no minus mass: 0/0 in the flip terms gives a non-finite step
    "non-finite": ([0.3, 0.2, 0.0, 0.0, 0.0, 0.0], [1.0] * 8, 1e-2, 10,
                   -1.0, NEG_CLAMP_TOL, 3),
    # steps too large for the flip rates undershoot zero, within the tolerance
    "clamped": (normalized([0.2, 0.1, 0.2, 0.1, 0.1, 0.1]),
                [16.0, 8.0] + [10.0] * 6, 0.1, 100, DELTA_CONSENSUS, 1e-2, 0),
    # ... and beyond it
    "negative": (normalized([0.2, 0.1, 0.2, 0.1, 0.1, 0.1]),
                 [20.0, 10.0] + [1.0] * 6, 0.3, 100, DELTA_CONSENSUS, NEG_CLAMP_TOL, 2),
    # beyond the tolerance in the first step, which also clamps a component
    "negative-after-clamp": (normalized([0.2, 0.1, 0.2, 0.1, 0.1, 0.1]),
                             [30.0, 15.0] + [3.0] * 6, 0.25, 100, DELTA_CONSENSUS, 0.1, 2),
}


@pytest.mark.needs_cc
@pytest.mark.parametrize("kirk", [0, 1])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_bitwise_equal_on_stop_and_clamp_cases(name, kirk):
    y0, r, dt, n_steps, delta, neg_tol, expected = EDGE_CASES[name]
    _, status, clamped, steps_done = assert_same_run(
        (np.asarray(y0, dtype=float), np.asarray(r, dtype=float), kirk, dt, n_steps, 10,
         delta, neg_tol))
    assert status == expected
    assert (steps_done == n_steps) == (expected == 0)
    if name in ("clamped", "negative-after-clamp"):
        assert clamped > 0


@st.composite
def closure_runs(draw):
    """Valid initial moments, random rates and a short horizon; about half
    the runs have equal flip rates."""
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)))
    assume(raw.sum() > 0.0)
    y0 = normalized(raw)
    rho_p = y0[0] + y0[1] + y0[4] + y0[5]
    assume(0.0 < rho_p < 1.0)
    r = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=8, max_size=8)))
    if draw(st.booleans()):
        r[1] = r[0]
    return (y0, r, draw(st.sampled_from([0, 1])), draw(st.sampled_from([0.01, 0.1, 0.3])),
            draw(st.integers(0, 60)), draw(st.integers(1, 7)), DELTA_CONSENSUS, NEG_CLAMP_TOL)


@settings(max_examples=150)
@given(closure_runs())
def test_loops_agree_and_keep_the_invariants(run):
    r, neg_tol = run[1], run[7]
    n_rec, _, clamped, _ = assert_same_run(run)
    recs = python_loop(*run)[0][:n_rec]
    assert np.all(recs >= 0.0)
    # each clamp adds at most neg_tol to the conserved sums
    tol = 1e-12 + clamped * neg_tol
    totals = recs[:, :4].sum(axis=1) + 2.0 * recs[:, 4:].sum(axis=1)
    assert np.all(np.abs(totals - 1.0) <= tol)
    if r[0] == r[1]:
        rho_p = recs[:, 0] + recs[:, 1] + recs[:, 4] + recs[:, 5]
        assert np.all(np.abs(rho_p - rho_p[0]) <= tol)


@pytest.mark.needs_cc
def test_compiled_loop_rejects_bad_shapes():
    y0, r = criterion_01_cases()[0]
    with pytest.raises(ValueError):
        closures._integrate_loop(y0[:5], r, 0, 1e-3, 10, 1, DELTA_CONSENSUS, NEG_CLAMP_TOL)
    with pytest.raises(ValueError):
        closures._integrate_loop(y0, r, 0, 1e-3, -1, 1, DELTA_CONSENSUS, NEG_CLAMP_TOL)


def test_missing_compiler_falls_back_with_warning(tmp_path, caplog):
    missing = str(tmp_path / "no-such-cc")
    with caplog.at_level(logging.WARNING, logger="coevnet._native"):
        lib = _native.load_library(missing)
    assert lib is None
    warnings = [rec for rec in caplog.records if rec.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert missing in warnings[0].getMessage()


def test_without_kernels_every_cli_run_writes_the_pinned_bytes(tmp_path, monkeypatch):
    """The 14 configurations of test_cli_bytes with ``_native.LIB`` None, in
    this process (one usable CPU, so no pool forks): every CSV has its
    pinned sha256 and each of the five references ran."""
    pinned = json.loads(PINNED.read_text())
    if np.__version__ != pinned["numpy"]:
        pytest.skip(f"hashes were made with numpy {pinned['numpy']}, this is {np.__version__}")
    monkeypatch.setattr(_native, "LIB", None)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)
        calls[name] = 0

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)

    count(closures, "_closure_loop_py")
    count(jumpsim._MinimalEngine, "run")
    count(io, "_python_rows")
    count(microsim, "_MicroFlow")
    count(microsim, "_nullcline_py")
    got = {}
    for name, cfg in CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0, name
        for csv in sorted(out.rglob("*.csv")):
            got[f"{name}/{csv.relative_to(out).as_posix()}"] = \
                hashlib.sha256(csv.read_bytes()).hexdigest()
    assert got == pinned["sha256"]
    assert all(calls.values()), calls


@pytest.mark.needs_cc
def test_unwritable_build_dir_falls_back_to_next(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")      # a file, so no directory can be made below it
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "_cache_dirs",
                        lambda: [str(blocker / "cbuild"), str(cache)])
    path = _native._build_library("cc")
    assert path.startswith(str(cache))
    assert [p.name for p in cache.iterdir()] == [os.path.basename(path)]
    assert _native._build_library("cc") == path


def test_a_new_build_prunes_the_package_cache_alone(tmp_path, monkeypatch):
    """A module built into the package's own cache removes the other
    modules of this interpreter and the suffix-less ones of earlier builds
    there; other interpreters' modules and other files stay, and a build
    into another cache directory removes nothing.  The compiler "true"
    builds an empty file, which is all the pruning needs."""
    stale = ["_kernels-0123456789abcdef" + _native._EXT_SUFFIX, "_kernels-fedcba9876543210.so"]
    other = ["_kernels-0123456789abcdef.cpython-399-elsewhere.so", "_kernels-0123.so",
             "_kernels-0123456789abcdef.so.bak", "notes.txt"]
    pkg, shared = tmp_path / "cbuild", tmp_path / "shared"
    monkeypatch.setattr(_native, "_PKG_CACHE", str(pkg))
    for d, left in ((shared, stale + other), (pkg, other)):
        d.mkdir(mode=0o700)
        for name in stale + other:
            (d / name).write_text("")
        monkeypatch.setattr(_native, "_cache_dirs", lambda: [str(d)])
        path = _native._build_library("true")
        assert sorted(p.name for p in d.iterdir()) == sorted(left + [os.path.basename(path)])


def test_cache_name_carries_the_interpreter_abi(monkeypatch):
    names = []
    for suffix in (".cpython-311-x86_64-linux-gnu.so", ".cpython-312-x86_64-linux-gnu.so"):
        monkeypatch.setattr(_native, "_EXT_SUFFIX", suffix)
        names.append(_native._library_name("cc"))
        assert names[-1].startswith("_kernels-") and names[-1].endswith(suffix)
    assert names[0] != names[1]
    monkeypatch.setattr(_native, "_C_FLAGS", tuple(
        "-I/elsewhere/include/python3.11" if flag.startswith("-I") else flag
        for flag in _native._C_FLAGS))
    assert _native._library_name("cc") not in names


@pytest.mark.needs_cc
def test_missing_python_headers_fall_back_with_warning(tmp_path, monkeypatch, caplog):
    no_headers = str(tmp_path / "no-include")
    monkeypatch.setattr(_native, "_cache_dirs", lambda: [str(tmp_path / "cache")])
    monkeypatch.setattr(_native, "_C_FLAGS", tuple(
        "-I" + no_headers if flag.startswith("-I") else flag for flag in _native._C_FLAGS))
    monkeypatch.setattr(_native, "_INCLUDE", no_headers)
    with caplog.at_level(logging.WARNING, logger="coevnet._native"):
        lib = _native.load_library("cc")
    assert lib is None
    warnings = [rec for rec in caplog.records if rec.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "Python.h" in warnings[0].getMessage()
    assert list((tmp_path / "cache").iterdir()) == []   # no half-built module is left


@pytest.mark.needs_cc
def test_the_module_is_loaded_from_the_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(_native, "_cache_dirs", lambda: [str(tmp_path)])
    lib = _native.load_library("cc")
    assert [p.name for p in tmp_path.iterdir()] == [_native._library_name("cc")]
    assert lib.__name__ == "coevnet._kernels"
    assert lib.__file__ == str(tmp_path / _native._library_name("cc"))
    y0, r = criterion_01_cases()[0]
    monkeypatch.setattr(_native, "LIB", lib)
    args = (y0, r, 1, 1e-3, 200, 50, DELTA_CONSENSUS, NEG_CLAMP_TOL)
    got, want = closures._integrate_loop(*args), python_loop(*args)
    assert got[2:] == want[2:] and np.array_equal(got[0][:got[2]], want[0][:want[2]])
