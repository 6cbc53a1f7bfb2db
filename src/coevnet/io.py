"""Artifact writers: CSV/JSON with atomic replace and full-precision floats.

All floats are serialized with 17 significant digits so acceptance tolerances
are never masked by formatting. Every CSV goes through one table writer,
`_write_table`; files are streamed to a temporary sibling, at most
`_BLOCK_ROWS` rows per write, and renamed into place with the mode a new
file gets under the process umask. Numeric rows are rendered by the
compiled kernels (``coevnet_format_rows``), and by python when
``_native.LIB`` is None or a chunk has string cells; both print the same
bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from . import _native

_FLOAT = "%.17g".__mod__
_MOMENTS = ["f_pp", "g_pp", "f_mm", "g_mm", "f_pm", "g_pm"]
_EVENTS_PER_CHUNK = 1 << 16
_BLOCK_ROWS = 4096
_G17_MAX = 24   # the longest "%.17g" text, e.g. -2.2250738585072014e-308
_UMASK = os.umask(0)   # os.umask sets the mask and returns the old one:
os.umask(_UMASK)       # read it once and put it back


def _atomic_write(path: str, chunks: Iterable[str | bytes | memoryview]) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.chmod(tmp, 0o666 & ~_UMASK)   # mkstemp made it 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _formatted(values) -> list[str]:
    """17-digit strings of float values, each distinct bit pattern formatted once."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).ravel().view(np.int64),
                              return_inverse=True)
    distinct = bits.view(np.float64).tolist()   # formatted in one call, then split
    text = np.array(("%.17g\n" * len(distinct) % tuple(distinct)).split("\n")[:-1], dtype=object)
    return text[inverse].tolist()


def _python_rows(pieces: list[str], columns: list) -> Iterator[str]:
    """The rows of `_write_table`, `_BLOCK_ROWS` at a time, formatted in python.

    Row k is pieces[0], the k-th cell of columns[0], pieces[1], ..., the
    k-th cell of the last column, pieces[-1]; a column is a list of strings
    or a float64 array. This is the reference for the C renderer.
    """
    cells = [c if isinstance(c, list) else _formatted(c) for c in columns]
    template = [pieces[0]]
    for piece in pieces[1:]:
        template += [None, piece]
    for lo in range(0, len(cells[0]), _BLOCK_ROWS):
        block = [c[lo:lo + _BLOCK_ROWS] for c in cells]
        flat = template * len(block[0])
        for k, c in enumerate(block):   # cell k sits at 2k + 1 in the template
            flat[2 * k + 1::len(template)] = c
        yield "".join(flat)


def _render_rows(pieces: list[str], columns: list[np.ndarray]) -> Iterator[memoryview]:
    """The rows of `_python_rows` for 1-D float64 columns as the same bytes,
    printed by the compiled kernels' ``format_rows``, `_BLOCK_ROWS` rows at a
    time, each block a view of one reused buffer that is valid until the
    next block is asked for.  Only called when ``_native.LIB`` is loaded.
    """
    text = [p.encode() for p in pieces]
    off = np.cumsum([0] + [len(p) for p in text], dtype=np.int64)
    text = b"".join(text)
    n = len(columns[0])
    if any(c.dtype != np.float64 or c.ndim != 1 or len(c) != n for c in columns):
        raise ValueError("the row renderer takes 1-D float64 columns of one length")
    rows = min(n, _BLOCK_ROWS)
    buf = np.empty(rows * (int(off[-1]) + _G17_MAX * len(columns)), dtype=np.uint8)
    fn = _native.LIB.format_rows
    for lo in range(0, n, _BLOCK_ROWS):
        size = fn(text, off, columns, lo, min(rows, n - lo), buf)
        yield buf.data[:size]


def _write_table(path: str, header: list[str], chunks: Iterable[list]) -> None:
    """CSV with a header line and, per chunk, one row per entry of its columns.

    A column is a list of strings, a float shared by every row of the chunk
    (a chunk needs one other column), or an array of floats. A chunk's
    shared cells are merged with the separators into the constant text
    between its other columns. A chunk of float arrays alone is rendered by
    `_render_rows` when the compiled kernels are loaded (``_native.LIB`` is
    read per chunk), any other chunk by `_python_rows`, which formats each
    distinct value (by bit pattern) once.
    Callers build a row's fixed parts (a sample's time) once per call.
    """
    def text():
        yield ",".join(header) + "\n"
        for columns in chunks:
            pieces, cells = [""], []   # the constant text between the other columns
            for c in columns:
                if isinstance(c, float):
                    pieces[-1] += _FLOAT(c) + ","
                else:
                    cells.append(c if isinstance(c, list)
                                 else np.asarray(c, dtype=float).reshape(-1))
                    pieces.append(",")
            pieces[-1] = pieces[-1][:-1] + "\n"
            if len({len(c) for c in cells}) > 1:
                raise ValueError(f"{path}: columns of unequal length")
            if not cells:
                continue
            if _native.LIB is None or any(isinstance(c, list) for c in cells):
                yield from _python_rows(pieces, cells)
            else:
                yield from _render_rows(pieces, cells)
    _atomic_write(path, text())


def write_csv(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    _write_table(path, header, ([[_FLOAT(float(v)) if isinstance(v, (float, np.floating))
                                  else str(v)] for v in row] for row in rows))


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (np.integer, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str, obj) -> None:
    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"])


def write_states_csv(path: str, times, configs, masses=None) -> None:
    """Rows (t, i, s components [, mass]) for each sampled configuration."""
    arrays = [np.column_stack([np.asarray(snap, dtype=float)]) for snap in configs]
    header = ["t", "i"] + [f"s{k}" for k in range(arrays[0].shape[1])]
    extra = [] if masses is None else [np.asarray(masses, dtype=float)]
    header += ["mass"] * len(extra)
    index = np.arange(max(map(len, arrays)), dtype=float)   # "%.17g" of 3.0 is 3
    _write_table(path, header, ([t, index[:len(a)], *a.T, *(c[:len(a)] for c in extra)]
                                for t, a in zip(map(float, times), arrays)))


def write_weights_csv(path: str, times, weight_mats) -> None:
    """Rows (t, i, j, w_ij) over all ordered pairs i != j."""
    def chunk(t, W):
        W = np.asarray(W, dtype=float)
        return [t, *map(_off_diagonal, np.indices(W.shape, dtype=float)), _off_diagonal(W)]
    _write_table(path, ["t", "i", "j", "w"],
                 (chunk(t, W) for t, W in zip(map(float, times), weight_mats)))


def _off_diagonal(M: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of the N x N matrix M, row-major: the flat
    matrix after its first entry is N - 1 rows of N + 1 entries, each ending
    on the diagonal."""
    N = len(M)
    return M.reshape(-1)[1:].reshape(N - 1, N + 1)[:, :-1]


def write_events_csv(path: str, events) -> None:
    """Rows (t, event, i, j), streamed `_EVENTS_PER_CHUNK` events at a time."""
    it = iter(events)
    batches = iter(lambda: list(islice(it, _EVENTS_PER_CHUNK)), [])  # until exhausted
    _write_table(path, ["t", "event", "i", "j"], ([t] + [list(map(str, c)) for c in labels]
                                                 for t, *labels in (zip(*b) for b in batches)))


def write_moments_csv(path: str, times, moments) -> None:
    y = np.asarray(moments, dtype=float)
    n = min(len(times), len(y))
    _write_table(path, ["t"] + _MOMENTS, [[np.asarray(times, dtype=float)[:n], *y[:n].T]])


def write_closure_csv(path: str, traj) -> None:
    t = np.asarray(traj.times, dtype=float)
    y = traj.moments[:len(t)]
    h = y[:, 0::2] + y[:, 1::2]  # f + g for pp, mm and pm
    _write_table(path, ["t"] + _MOMENTS + ["rho_p", "h_pp", "h_mm", "h_pm"],
                 [[t, *y.T, traj.rho_p[:len(t)], *h.T]])


def write_error_curves_csv(path: str, report) -> None:
    header = ["t"] + [f"{k}_{m}" for k in ("err_cond", "err_kirk", "stderr") for m in _MOMENTS]
    n = min(report.err_conditional.shape[0], report.err_kirkwood.shape[0])
    errors = np.hstack([report.err_conditional[:n], report.err_kirkwood[:n],
                        report.stderr_moments[:n]])
    _write_table(path, header, [[np.asarray(report.times, dtype=float)[:n], *errors.T]])
