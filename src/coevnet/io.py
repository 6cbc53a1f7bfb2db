"""Artifact writers: CSV/JSON with atomic replace and full-precision floats.

All floats are serialized with 17 significant digits so acceptance tolerances
are never masked by formatting. Every CSV goes through one table writer,
`_write_table`; files are streamed to a temporary sibling, at most
`_BLOCK_ROWS` rows per write, and renamed into place.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain, islice, repeat
from typing import Iterable

import numpy as np

_FLOAT = "%.17g".__mod__
_MOMENTS = ["f_pp", "g_pp", "f_mm", "g_mm", "f_pm", "g_pm"]
_EVENTS_PER_CHUNK = 1 << 16
_BLOCK_ROWS = 4096


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            for chunk in chunks:
                f.write(chunk)
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


def _write_table(path: str, header: list[str], chunks: Iterable[list]) -> None:
    """CSV with a header line and, per chunk, one row per entry of its columns.

    A column is a list of strings, a float shared by every row of the chunk
    (a chunk needs one other column), or an array of floats, whose distinct
    values (by bit pattern) are formatted once. A chunk's shared cells are
    merged with the separators into one row template; its rows are then one
    flat join of the template's copies with the other columns' cells, made
    and written `_BLOCK_ROWS` rows at a time. Callers build a row's fixed
    parts (a sample's time, the ``i`` and ``j`` cells) once per call.
    """
    def text():
        yield ",".join(header) + "\n"
        for columns in chunks:
            template, cells = [""], []   # the constant text between the other columns
            for c in columns:
                if isinstance(c, float):
                    template[-1] += _FLOAT(c) + ","
                else:
                    cells.append(c if isinstance(c, list) else _formatted(c))
                    template += [None, ","]
            template[-1] = template[-1][:-1] + "\n"
            if len({len(c) for c in cells}) > 1:
                raise ValueError(f"{path}: columns of unequal length")
            for lo in range(0, len(cells[0]) if cells else 0, _BLOCK_ROWS):
                block = [c[lo:lo + _BLOCK_ROWS] for c in cells]
                flat = template * len(block[0])
                for k, c in enumerate(block):   # cell k sits at 2k + 1 in the template
                    flat[2 * k + 1::len(template)] = c
                yield "".join(flat)
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
    extra = [] if masses is None else [_formatted(masses)]
    header += ["mass"] * len(extra)
    index = list(map(str, range(max(map(len, arrays)))))
    _write_table(path, header, ([t, index[:len(a)], *a.T, *(c[:len(a)] for c in extra)]
                                for t, a in zip(map(float, times), arrays)))


def write_weights_csv(path: str, times, weight_mats) -> None:
    """Rows (t, i, j, w_ij) over all ordered pairs i != j."""
    def chunk(t, W):
        N = len(W)
        # the off-diagonal entries, row-major: the flat matrix after the first
        # entry is N - 1 rows of N + 1 entries, each ending on the diagonal
        off = np.asarray(W, dtype=float).reshape(-1)[1:].reshape(N - 1, N + 1)[:, :-1]
        return [t, *_pair_index(N), off]
    _write_table(path, ["t", "i", "j", "w"],
                 (chunk(t, W) for t, W in zip(map(float, times), weight_mats)))


def _pair_index(N: int) -> tuple[list[str], list[str]]:
    """The i and the j cells of an N x N matrix's off-diagonal entries, row-major:
    N shared strings, quick to build (0.7 ms at N=200), so they are not cached."""
    index = list(map(str, range(N)))
    j = index * N
    del j[::N + 1]   # the diagonal
    return list(chain.from_iterable(map(repeat, index, repeat(N - 1, N)))), j


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
