"""Build and load the compiled kernels.

``_kernels.c`` holds the closure RK4 loop (bound by ``closures``), the
minimal-model Gillespie engine (bound by ``jumpsim``) and the CSV row
renderer (bound by ``io``).  It is compiled with the system ``cc`` the first
time the package is imported, cached next to the source (in ``_cbuild/``, or
under the temp dir when that is read-only) and loaded through ctypes.
``LIB`` is the loaded library, or None with one warning naming the cause, in
which case all three modules run their pure-python reference code.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import stat
import subprocess
import tempfile

log = logging.getLogger(__name__)

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# No fused multiply-adds and no fast-math: the kernels must round every
# operation as python and numpy do, so that they stay bitwise equal to the
# reference loops.
_C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_PKG_CACHE = os.path.join(os.path.dirname(_C_SOURCE), "_cbuild")


def _cache_dirs() -> list[str]:
    """Directories for the compiled library: next to its source, else (for a
    read-only install) a per-user directory under the temp dir."""
    dirs = [_PKG_CACHE]
    if hasattr(os, "getuid"):
        dirs.append(os.path.join(tempfile.gettempdir(), f"coevnet-cbuild-{os.getuid()}"))
    return dirs


def _trusted(d: str) -> bool:
    """The package's own directory, or a real directory of this user that
    nobody else can write to (a library found there is loaded and run)."""
    if d == _PKG_CACHE:
        return True
    try:
        st = os.lstat(d)
    except OSError:
        return False
    return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _build_library(cc: str) -> str:
    """Path of the compiled kernels, built with compiler ``cc`` unless cached.

    The file name carries a hash of the source, the compiler and the flags,
    so an edited source is rebuilt and later processes only load the file.
    The library is compiled to a temporary name and moved into place with
    os.replace, so no process ever loads a half-written file.
    """
    with open(_C_SOURCE, "rb") as f:
        key = hashlib.sha256(b"\0".join(
            [f.read(), cc.encode(), *(flag.encode() for flag in _C_FLAGS)])).hexdigest()
    name = f"_kernels-{key[:16]}.so"
    dirs = _cache_dirs()
    for d in dirs:
        if os.path.isfile(os.path.join(d, name)) and _trusted(d):
            return os.path.join(d, name)
    compiler = shutil.which(cc)
    if compiler is None:
        raise OSError(f"C compiler {cc!r} not found on PATH")
    for d in dirs:
        try:
            os.makedirs(d, mode=0o700, exist_ok=True)
            if not _trusted(d):
                continue
            fd, tmp = tempfile.mkstemp(prefix=".tmp-", suffix=".so", dir=d)
        except OSError:
            continue    # read-only directory: try the next one
        os.close(fd)
        try:
            proc = subprocess.run([compiler, *_C_FLAGS, "-o", tmp, _C_SOURCE],
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise OSError(f"{cc} exited with status {proc.returncode}: "
                              f"{proc.stderr.strip()[:500]}")
            os.replace(tmp, os.path.join(d, name))
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return os.path.join(d, name)
    raise OSError(f"no writable build directory among {dirs}")


def load_library(cc: str = "cc") -> ctypes.CDLL | None:
    """The compiled kernels, or None with one warning naming the cause when
    the library cannot be built or loaded."""
    try:
        return ctypes.CDLL(_build_library(cc))
    except (OSError, subprocess.SubprocessError) as exc:
        log.warning("compiled kernels unavailable (%s): closure integration and the "
                    "Gillespie engine fall back to pure python, 50 to several hundred "
                    "times slower, and CSV rows to python formatting, 4 to 5 times "
                    "slower", exc)
        return None


LIB = load_library()
