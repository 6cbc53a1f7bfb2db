"""The compiled module checks every array before a kernel reads or writes it.

Each entry of ``coevnet._kernels`` takes numpy arrays and checks their
element type, C-contiguity, writability where it writes and length against
the sizes it is given; a failed check raises ValueError, so a wrong array
can never make a kernel read or write out of bounds.  Every entry is called
once with valid arrays, once with one array a single element too short and
once with a non-contiguous view of the right length.
"""

import numpy as np
import pytest

from coevnet import _native

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


def flow_args():
    L, N, m = 2, 3, 1
    n, row = N * m, N * m + N * N
    return [f64(L * N * N * m), f64(L * N * N), f64(L * row), n, row, np.array([0.5, 2.0]),
            L, N, m, 1]


def rk4_final_args():
    L, N, m = 2, 3, 1
    size = L * (N * m + N * N)
    return [f64(size), f64(size), f64(size), f64(size), f64(size), f64(size), 0.1, L, N * m, N, 1]


# entry -> (a function giving valid arguments, the argument to shorten, the
# argument to make non-contiguous)
ENTRIES = {
    "closure_loop": (lambda: [f64(6, 0.1), f64(8), 0, 1e-3, 10, 1, 1e-10, 1e-12, f64(12 * 6),
                              np.empty(12, dtype=np.int64), np.empty(3, dtype=np.int64)], 8, 0),
    "MinimalEngine": (engine_args, 2, 3),
    "format_rows": (format_args, 5, 1),
    "flow_pairs": (flow_args, 1, 0),
    "rk4_stage": (lambda: [f64(7), f64(7), f64(7), 0.05], 1, 2),
    "rk4_final": (rk4_final_args, 3, 0),
    "rkf45_stage": (lambda: [f64(7), f64(7), 0.1, np.array([0.25, 0.5]), f64(7), f64(7)], 3, 5),
    "rkf45_final": (lambda: [f64(7), f64(7), 0.1, f64(6, 0.1), f64(6, 0.2)] + [f64(7)] * 6, 10, 1),
    "illinois": (lambda: [f64(40), 4, 1], 0, 0),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_valid_arrays_run(entry):
    getattr(LIB, entry)(*ENTRIES[entry][0]())


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_too_short_array_is_refused(entry):
    make, short, _ = ENTRIES[entry]
    args = make()
    args[short] = args[short][:-1]
    with pytest.raises(ValueError, match="fewer than the"):
        getattr(LIB, entry)(*args)


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_non_contiguous_view_is_refused(entry):
    make, _, bent = ENTRIES[entry]
    args = make()
    args[bent] = strided(args[bent])
    with pytest.raises(ValueError, match="C-contiguous"):
        getattr(LIB, entry)(*args)


def test_a_read_only_output_is_refused():
    args = [f64(7), f64(7), f64(7), 0.05]
    args[2].flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        LIB.rk4_stage(*args)


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_a_wrong_element_type_is_refused(dtype):
    with pytest.raises(ValueError, match="wrong element type"):
        LIB.illinois(np.zeros(40, dtype=dtype), 4, 1)


def test_a_short_column_is_refused_and_nothing_is_written():
    text, off, cols, row0, n_rows, out = format_args()
    out[:] = 7
    with pytest.raises(ValueError, match="column 1 must be a 1-D float64 array"):
        LIB.format_rows(text, off, [cols[0], cols[1][:2]], row0, n_rows, out)
    assert (out == 7).all()


def test_flags_come_back_per_leg():
    args = flow_args()
    args[0][:9] = np.nan   # the first leg's U
    assert LIB.flow_pairs(*args) == (False, True)
    args = rk4_final_args()
    args[0][-1] = np.inf   # the second leg
    assert LIB.rk4_final(*args) == (True, False)
    args = rk4_final_args()
    args[0][3 + 1] = 2.0   # w_01 of the first leg, not w_10: symmetry lost
    assert LIB.rk4_final(*args) == (True, True)
    assert LIB.rk4_final(*rk4_final_args()) is None
