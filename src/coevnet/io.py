"""Artifact writers: CSV/JSON with atomic replace and full-precision floats.

All floats are serialized with 17 significant digits so acceptance
tolerances are never masked by formatting; files are written to a temporary
sibling and renamed into place.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable

import numpy as np


def fmt(x) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n")


def write_states_csv(path: str, times, configs, masses=None) -> None:
    """Rows (t, i, s components [, mass]) for each sampled configuration."""
    first = np.asarray(configs[0], dtype=float)
    if first.ndim == 1:
        first = first[:, None]
    m = first.shape[1]
    header = ["t", "i"] + [f"s{k}" for k in range(m)]
    if masses is not None:
        header.append("mass")

    def rows():
        for t, snap in zip(times, configs):
            arr = np.asarray(snap, dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            for i in range(arr.shape[0]):
                row = [fmt(t), str(i)] + [fmt(v) for v in arr[i]]
                if masses is not None:
                    row.append(fmt(masses[i]))
                yield row

    lines = [",".join(header)]
    for row in rows():
        lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_weights_csv(path: str, times, weight_mats) -> None:
    """Rows (t, i, j, w_ij) over all ordered pairs i != j."""
    lines = ["t,i,j,w"]
    for t, W in zip(times, weight_mats):
        W = np.asarray(W, dtype=float)
        N = W.shape[0]
        for i in range(N):
            for j in range(N):
                if i != j:
                    lines.append(f"{fmt(t)},{i},{j},{fmt(W[i, j])}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_events_csv(path: str, events) -> None:
    lines = ["t,event,i,j"]
    for t, kind, i, j in events:
        lines.append(f"{fmt(t)},{kind},{i},{j}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_moments_csv(path: str, times, moments) -> None:
    header = ["t", "f_pp", "g_pp", "f_mm", "g_mm", "f_pm", "g_pm"]
    lines = [",".join(header)]
    for t, row in zip(times, np.asarray(moments, dtype=float)):
        lines.append(",".join([fmt(t)] + [fmt(v) for v in row]))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_closure_csv(path: str, traj) -> None:
    header = ["t", "f_pp", "g_pp", "f_mm", "g_mm", "f_pm", "g_pm",
              "rho_p", "h_pp", "h_mm", "h_pm"]
    lines = [",".join(header)]
    y = traj.moments
    rho_p = traj.rho_p
    for k, t in enumerate(traj.times):
        extra = [rho_p[k], y[k, 0] + y[k, 1], y[k, 2] + y[k, 3], y[k, 4] + y[k, 5]]
        lines.append(",".join([fmt(t)] + [fmt(v) for v in y[k]] + [fmt(v) for v in extra]))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_error_curves_csv(path: str, report) -> None:
    names = ["f_pp", "g_pp", "f_mm", "g_mm", "f_pm", "g_pm"]
    header = ["t"] + [f"err_cond_{n}" for n in names] + [f"err_kirk_{n}" for n in names] \
        + [f"stderr_{n}" for n in names]
    lines = [",".join(header)]
    n = min(report.err_conditional.shape[0], report.err_kirkwood.shape[0])
    for k in range(n):
        vals = ([report.times[k]] + list(report.err_conditional[k])
                + list(report.err_kirkwood[k]) + list(report.stderr_moments[k]))
        lines.append(",".join(fmt(v) for v in vals))
    _atomic_write(path, "\n".join(lines) + "\n")
