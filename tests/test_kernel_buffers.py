"""The compiled module checks every array before a kernel reads or writes it.

Each entry of ``coevnet._kernels`` takes numpy arrays and checks their
element type, C-contiguity, writability where it writes and length against
the sizes it is given; a failed check raises ValueError, so a wrong array
can never make a kernel read or write out of bounds.  Every entry is called
once with valid arrays, once with one array a single element too short and
once with a non-contiguous view of the right length; ``rk_step`` so for
its out, for its y and stage buffer, and for its RK4 and its Fehlberg stage
records, each of which it writes but y.  ``MicroFlow`` takes
its arrays when it is called: its output, which must be C-contiguous, the
states part of it, which may be strided, and the results of the callbacks
that it runs on, which it reads in place with any strides and never
writes, through on_grid when they are not float64 arrays of their grid.
``nullcline`` takes the size of its buffer from the row lo that V is
called on, and reads V's results as ``MicroFlow`` reads its results, on
lo's shape.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from coevnet import _native, microsim

pytestmark = pytest.mark.needs_cc

LIB = _native.LIB


def f64(n, value=0.5):
    return np.full(n, value)


def strided(a):
    """A non-contiguous view with a's dtype and values."""
    b = np.empty(2 * len(a), dtype=a.dtype)
    b[::2] = a
    return b[::2]


def engine_args():
    N = 5
    s = np.array([1, 0, 1, 1, 0], dtype=np.int8)
    W = np.zeros((N, N), dtype=np.int8)
    W[0, 2] = W[2, 0] = 1
    return [f64(8), s, W.ravel(), np.empty(2 * N, dtype=np.int32), np.empty(N, dtype=np.int32),
            np.empty(3 * N * (N - 1) // 2, dtype=np.int32), np.empty(N * N, dtype=np.int32),
            np.empty(N, dtype=np.int32)]


def format_args():
    text = b"a,b,\n"
    return [text, np.array([0, 2, 4, 5], dtype=np.int64), [f64(3, 1.25), f64(3, 2.0)], 0, 3,
            np.empty(3 * (5 + 2 * 24), dtype=np.uint8)]


def grid(shape):
    """A pair-grid callback: a fresh array of shape, 0.5 everywhere."""
    return lambda s, sig, w: np.full(shape, 0.5)


def micro_flow(L=2, N=3, m=1, eps=(0.5, 2.0), row_sum=None, V=grid, on_grid=None):
    """A MicroFlow with pair forces and weight drifts 0.5 everywhere."""
    return LIB.MicroFlow(V and V((L, N, N)), grid((L, N, N, m)),
                         row_sum or (lambda U: np.add.reduce(U, axis=2)), float(N), None,
                         None if eps is None else np.array(eps), L, N, m, 1, N * m + N * N,
                         on_grid or microsim._on_grid)


def flow_args():
    """The call of micro_flow(): states, pair views, weights, ds and out."""
    L, N, m = 2, 3, 1
    states = np.full((L, N, m), 0.25)
    out = f64(L * (N * m + N * N))
    return [states, states[:, :, None], states[:, None], np.zeros((L, N, N)),
            out.reshape(L, -1)[:, :N * m].reshape(L, N, m), out]


def nullcline_args():
    """A solve of V = 0.5 - w over a grid of 4 pairs: V, si, sj, the flat
    buffer of 10 rows, the rows V is called on, the limits and on_grid."""
    buf = np.empty(40)
    rows = buf.reshape(10, 4)
    return [lambda s, sig, w: 0.5 - w, np.zeros((4, 1)), np.zeros(1), buf, rows[0], rows[1],
            rows[8], 100, 4.0 ** 10, 1e-12, microsim._on_grid]


def rk_step_args(L=1, n=7, N=0, sym=0, fehlberg=0):
    """An RK4 step, or a Fehlberg substep with fehlberg, of L legs of n
    states and N x N weights, 0.5 everywhere, with a drift that writes
    nothing: f, the records of y and of the stage buffer, four (six) stage
    records, out, h, fehlberg, L, n, N and sym."""
    size = L * (n + N * N)

    def record():
        return (f64(size), None, None, None, None)
    return [lambda *args: None, record(), record(),
            tuple(record() for _ in range(6 if fehlberg else 4)), f64(size), 0.1, fehlberg, L, n,
            N, sym]


# entry -> (a function giving valid arguments, the argument to shorten, the
# argument to make non-contiguous); an argument inside a record is given by
# its path of indices
ENTRIES = {
    "closure_loop": (lambda: [f64(6, 0.1), f64(8), 0, 1e-3, 10, 1, 1e-10, 1e-12, f64(12 * 6),
                              np.empty(12, dtype=np.int64), np.empty(3, dtype=np.int64)], 8, 0),
    "MinimalEngine": (engine_args, 2, 3),
    "format_rows": (format_args, 5, 1),
    "MicroFlow": (flow_args, 5, 5),
    "nullcline": (nullcline_args, 3, 3),
    "rk_step": (rk_step_args, 4, 4),
    "rk_step y": (rk_step_args, (2, 0), (1, 0)),
    "rk_step rk4 stages": (rk_step_args, (3, 3, 0), (3, 0, 0)),
    "rk_step fehlberg stages": (lambda: rk_step_args(fehlberg=1), (3, 5, 0), (3, 4, 0)),
}


def call(entry, args):
    return (micro_flow() if entry == "MicroFlow" else getattr(LIB, entry.split()[0]))(*args)


def swap(args, at, change):
    """args with the item at the index at, or at the path at of indices
    into args and its nested tuples, replaced by change(item)."""
    i, *rest = at if isinstance(at, tuple) else (at,)
    item = swap(args[i], tuple(rest), change) if rest else change(args[i])
    return type(args)([*args[:i], item, *args[i + 1:]])


def test_the_module_exports_only_what_the_package_calls():
    """Each public name of the module is one of the package's entries, and
    the package's source calls each one."""
    names = {name for name in dir(LIB) if not name.startswith("_")}
    assert names == {"closure_loop", "format_rows", "MinimalEngine", "MicroFlow", "rk_step",
                     "nullcline"}
    source = "".join(p.read_text() for p in Path(_native.__file__).parent.glob("*.py"))
    for name in names:
        assert re.search(rf"\.{name}\b", source), name


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_valid_arrays_run(entry):
    call(entry, ENTRIES[entry][0]())


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_too_short_array_is_refused(entry):
    make, short, _ = ENTRIES[entry]
    args = swap(make(), short, lambda a: a[:-1])
    with pytest.raises(ValueError, match="fewer than the"):
        call(entry, args)


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_non_contiguous_view_is_refused(entry):
    make, _, bent = ENTRIES[entry]
    args = swap(make(), bent, strided)
    with pytest.raises(ValueError, match="C-contiguous"):
        call(entry, args)


def test_a_read_only_output_is_refused():
    args = rk_step_args()
    args[4].flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        LIB.rk_step(*args)


@pytest.mark.parametrize("stage", range(7), ids=["stage buffer", *(f"k{i}" for i in range(6))])
def test_a_read_only_stage_buffer_is_refused(stage):
    """The stage buffer and each of a Fehlberg substep's six stage records,
    which the step writes."""
    args = rk_step_args(fehlberg=1)
    (args[2] if stage == 0 else args[3][stage - 1])[0].flags.writeable = False
    with pytest.raises(ValueError, match="a stage buffer must be .* writable .* is read-only"):
        LIB.rk_step(*args)


def test_a_read_only_y_is_only_read():
    writable, read_only = rk_step_args(fehlberg=1), rk_step_args(fehlberg=1)
    read_only[1][0].flags.writeable = False
    assert LIB.rk_step(*read_only) == LIB.rk_step(*writable)
    assert (read_only[4] == writable[4]).all() and (read_only[1][0] == 0.5).all()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_a_wrong_element_type_is_refused(dtype):
    args = nullcline_args()
    args[3] = args[3].astype(dtype)
    with pytest.raises(ValueError, match="wrong element type"):
        LIB.nullcline(*args)


def test_a_nullcline_solve_writes_its_roots_into_w():
    args = nullcline_args()
    assert LIB.nullcline(*args) == 0
    assert (args[3][16:20] == 0.5).all()


@pytest.mark.parametrize("change, error, message", [
    (lambda a: a.__setitem__(7, -1), ValueError, "max_steps must be at least 0"),
    (lambda a: a.__setitem__(8, "big"), TypeError, "must be real number"),
    (lambda a: a.__setitem__(4, a[4].astype(np.float32)), ValueError, "lo must be a"),
    (lambda a: a.pop(), TypeError, "nullcline takes 11 arguments \\(10 given\\)"),
])
def test_a_nullcline_solve_refuses_bad_arguments(change, error, message):
    args = nullcline_args()
    change(args)
    with pytest.raises(error, match=message):
        LIB.nullcline(*args)


def test_a_nullcline_result_off_the_grid_goes_through_on_grid():
    """A result that the solve cannot read as it is (here a list) is
    converted by on_grid, and one that does not broadcast raises its error."""
    seen = []

    def on_grid(a, grid, name):
        seen.append((grid, name))
        return microsim._on_grid(a, grid, name)
    args = nullcline_args()
    args[0], args[10] = (lambda s, sig, w: (0.5 - w).tolist()), on_grid
    assert LIB.nullcline(*args) == 0 and (args[3][16:20] == 0.5).all()
    assert seen and set(seen) == {((4,), "V")}
    args[0] = lambda s, sig, w: np.zeros(3)
    with pytest.raises(microsim.ModelError, match="V returned shape \\(3,\\)"):
        LIB.nullcline(*args)


def test_a_short_column_is_refused_and_nothing_is_written():
    text, off, cols, row0, n_rows, out = format_args()
    out[:] = 7
    with pytest.raises(ValueError, match="column 1 must be a 1-D float64 array"):
        LIB.format_rows(text, off, [cols[0], cols[1][:2]], row0, n_rows, out)
    assert (out == 7).all()


def test_flags_come_back_per_leg():
    U = np.full((2, 3, 3, 1), 0.5)
    U[0] = np.nan   # the first leg's
    flow = LIB.MicroFlow(grid((2, 3, 3)), lambda s, sig, w: U.copy(), np.sum, 3.0, None, None,
                         2, 3, 1, 1, 12, microsim._on_grid)
    assert flow(*flow_args()) == (False, True)
    legs = dict(L=2, n=3, N=3, sym=1)
    args = rk_step_args(**legs)
    args[1][0][-1] = np.inf   # y of the second leg: the update's checks
    assert LIB.rk_step(*args) == (4, (True, False))
    args = rk_step_args(**legs)
    args[1][0][3 + 1] = 2.0   # w_01 of the first leg, not w_10: symmetry lost
    assert LIB.rk_step(*args) == (4, (True, True))
    assert LIB.rk_step(*rk_step_args(**legs)) is None


def test_micro_flow_writes_the_drifts_into_a_strided_ds():
    args = flow_args()
    micro_flow()(*args)
    assert not args[4].flags.c_contiguous
    assert (args[4] == 0.5 * 2 / 3).all()   # (0.5 + 0.5 + 0) / 3, the diagonal zeroed
    W = args[5].reshape(2, 12)[:, 3:].reshape(2, 3, 3)
    assert (W == np.array([1.0, 0.25]).reshape(2, 1, 1) * (1 - np.eye(3))).all()


@pytest.mark.parametrize("bad, message", [
    (lambda a: a.__setitem__(4, np.zeros((2, 3, 2))), "ds must be a writable float64 array of "
     "shape \\(2, 3, 1\\)"),
    (lambda a: a.__setitem__(4, np.zeros((2, 3, 1), dtype=np.float32)), "ds must be a"),
    (lambda a: a[4].flags.__setattr__("writeable", False), "ds must be a writable"),
    (lambda a: a.__setitem__(5, None), "needs out to write the weight drift"),
    (lambda a: a[5].flags.__setattr__("writeable", False), "out must be .* writable"),
])
def test_micro_flow_refuses_a_bad_output(bad, message):
    args = flow_args()
    bad(args)
    with pytest.raises(ValueError, match=message):
        micro_flow()(*args)


def test_micro_flow_without_weights_takes_no_output():
    args = flow_args()
    args[5] = None
    micro_flow(V=None)(*args)
    assert (args[4] == 0.5 * 2 / 3).all()


@pytest.mark.parametrize("row_sum, message", [
    (lambda U: np.zeros((2, 3)), "row_sum\\(U\\) must be a float64 array of shape"),
    (lambda U: np.zeros((2, 3, 1), dtype=np.int64), "row_sum\\(U\\) must be a float64"),
])
def test_micro_flow_refuses_a_bad_row_sum(row_sum, message):
    with pytest.raises(ValueError, match=message):
        micro_flow(row_sum=row_sum)(*flow_args())


def test_micro_flow_refuses_a_short_grid_from_on_grid():
    """on_grid is called back for a result off its grid; what it returns
    must be a float64 array of the pair grid."""
    flow = LIB.MicroFlow(None, lambda s, sig, w: np.zeros(40)[2:20], np.sum, 3.0, None, None, 2,
                         3, 1, 1, 0, lambda a, grid, name, *state: a[:-1])
    with pytest.raises(ValueError, match="on_grid made no float64 array of U's grid"):
        flow(*flow_args())


@pytest.mark.parametrize("change, error, message", [
    (dict(eps=(0.5,)), ValueError, "eps holds 1 elements, fewer than the 2 needed"),
    (dict(eps=np.zeros(2, dtype=np.int64)), ValueError, "eps must be"),
    (dict(L=0), ValueError, "L must be at least 1"),
    (dict(row=11), ValueError, "row must hold the 3 states and 9 weights of a leg"),
])
def test_micro_flow_refuses_bad_construction(change, error, message):
    args = dict(V=grid((2, 3, 3)), U=grid((2, 3, 3, 1)), row_sum=np.sum, divisor=3.0, U0=None,
                eps=(0.5, 2.0), L=2, N=3, m=1, sym=1, row=12, on_grid=microsim._on_grid)
    args.update(change)
    if isinstance(args["eps"], tuple):
        args["eps"] = np.array(args["eps"])
    with pytest.raises(error, match=message):
        LIB.MicroFlow(*args.values())


@pytest.mark.parametrize("change, error, message", [
    (lambda a: a.__setitem__(1, a[1][:4]), TypeError, "a record must be a tuple"),
    (lambda a: a.__setitem__(3, a[3][:3]), TypeError, "at least 4 records"),
    (lambda a: a.__setitem__(6, 1), TypeError, "at least 6 records"),
    (lambda a: a.__setitem__(7, 2), ValueError, "y does not hold L rows"),
    (lambda a: a.__setitem__(0, micro_flow()), ValueError, "do not hold the flow's rows"),
])
def test_a_step_refuses_bad_records(change, error, message):
    args = rk_step_args()
    change(args)
    with pytest.raises(error, match=message):
        LIB.rk_step(*args)


@pytest.mark.parametrize("change, error, message", [
    (lambda a: a.pop(), TypeError, "rk_step takes 11 arguments \\(10 given\\)"),
    (lambda a: a.__setitem__(5, "big"), TypeError, "must be real number"),
    (lambda a: a.__setitem__(6, -1), ValueError, "fehlberg must be at least 0, got -1"),
    (lambda a: a.__setitem__(7, 0), ValueError, "L must be at least 1, got 0"),
    (lambda a: a.__setitem__(8, -1), ValueError, "n must be at least 0, got -1"),
    (lambda a: a.__setitem__(9, -1), ValueError, "N must be at least 0, got -1"),
    (lambda a: a.__setitem__(10, -1), ValueError, "sym must be at least 0, got -1"),
    (lambda a: a.__setitem__(3, list(a[3])), TypeError, "ks must be a tuple"),
    (lambda a: a.__setitem__(1, (a[1][0].astype(np.float32), *a[1][1:])), ValueError,
     "y must be a C-contiguous"),
    # 7 states and one 1 x 1 weight to check for symmetry: 8 > a row of 7
    (lambda a: a.__setitem__(slice(9, None), [1, 1]), ValueError,
     "y does not hold L rows of n states and N x N weights"),
])
def test_a_step_refuses_bad_arguments(change, error, message):
    args = rk_step_args()
    change(args)
    with pytest.raises(error, match=message):
        LIB.rk_step(*args)


def test_a_step_returns_the_stage_and_the_flags_of_a_failure():
    """The flags of the drift's third call (stage 2), then those of the
    update's checks (stage 4) when y is not finite."""
    calls = []
    args = rk_step_args()
    args[0] = lambda *a: calls.append(1) or ((False,) if len(calls) == 3 else None)
    assert LIB.rk_step(*args) == (2, (False,)) and len(calls) == 3
    args = rk_step_args()
    args[1][0][3] = np.inf
    assert LIB.rk_step(*args) == (4, (False,))
