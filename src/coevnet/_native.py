"""Build and load the compiled kernels.

``_kernels.c`` is one CPython extension module, ``coevnet._kernels``, whose
functions take the numpy arrays themselves and check them before any kernel
runs: the closure RK4 loop (called by ``closures``), the minimal-model
Gillespie engine (``jumpsim``), the CSV row renderer (``io``), and the
micro flow's evaluation, its step entry and the weight nullcline solve
(``microsim``, which holds a numpy twin of the flow and of the solve and
runs the step entry's reference, ``stepping.rk4_step`` and ``rkf45_step``,
in its place).  A micro flow evaluation is one call of the ``MicroFlow``
type, which makes the checks, U's zero diagonal, the weight drift and the
equal-mass row sum itself and calls Python back for the model's V, U and
U0 (for a kernel-relaxation model with its pair form, K and eta, from which
it forms U and V itself), the mass-weighted row sum and numpy's ``+=`` of
U0; each RK4 step and Fehlberg substep is one ``rk_step`` call, which
evaluates a ``MicroFlow`` at every stage itself, each stage and update one
sum, ``coevnet_rk_sum``; a nullcline solve is one ``nullcline`` call,
which runs the bracket search, the Illinois iterations and the residual
check itself and calls V back.  The module is compiled with ``cc`` and this interpreter's headers the first
time the package is imported, cached next to the source (in ``_cbuild/``,
or under the temp dir when that is read-only) under a name that carries the
interpreter's ABI, and loaded through ``importlib``.  A new build next to the source removes the
modules of earlier sources and flags there.

``LIB`` is the loaded module, or None with one warning naming the cause.  It
is the one backend switch: every call site reads ``_native.LIB`` when it is
called and runs its pure-python or numpy reference when it is None, so
setting it to None (forked workers inherit it) runs the whole package on the
references.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import re
import shutil
import stat
import subprocess
import sysconfig
import tempfile
from types import ModuleType

log = logging.getLogger(__name__)

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_MODULE = "coevnet._kernels"
# The interpreter the module is built for: its headers (in the flags) and
# the file suffix of its extension modules, both part of the cache key.
_INCLUDE = sysconfig.get_paths()["include"]
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
# No fused multiply-adds and no fast-math: the kernels must round every
# operation as python and numpy do, so that they stay bitwise equal to the
# reference loops, up to the sign and payload of NaN (which of two NaN
# operands a + or * returns depends on their order).
_C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-I" + _INCLUDE)
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


def _library_name(cc: str) -> str:
    """The cache file name of the module built with compiler ``cc``.

    It carries a hash of the source, the compiler, the flags (this
    interpreter's include directory among them) and the interpreter's
    extension suffix, and ends in that suffix, so an edited source is
    rebuilt and a module built for one Python is never loaded by another.
    """
    with open(_C_SOURCE, "rb") as f:
        key = hashlib.sha256(b"\0".join(
            [f.read(), cc.encode(), *(flag.encode() for flag in _C_FLAGS),
             _EXT_SUFFIX.encode()])).hexdigest()
    return f"_kernels-{key[:16]}{_EXT_SUFFIX}"


def _build_library(cc: str) -> str:
    """Path of the compiled module, built with compiler ``cc`` unless cached.

    Later processes only load the cached file (see ``_library_name``).  The
    module is compiled to a temporary name and moved into place with
    os.replace, so no process ever loads a half-written file.  A new module
    in the package's own cache replaces the earlier ones there (``_prune``).
    """
    name = _library_name(cc)
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
            fd, tmp = tempfile.mkstemp(prefix=".tmp-", suffix=_EXT_SUFFIX, dir=d)
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
        if d == _PKG_CACHE:
            _prune(d, name)
        return os.path.join(d, name)
    raise OSError(f"no writable build directory among {dirs}")


def _prune(d: str, keep: str) -> None:
    """Remove from directory d, all but the file keep, every module name
    this interpreter builds (``_kernels-<16 hex><EXT_SUFFIX>``) and every
    suffix-less ``_kernels-<16 hex>.so`` of earlier builds; other
    interpreters' modules and other files stay."""
    stale = re.compile(r"_kernels-[0-9a-f]{16}(?:%s|\.so)" % re.escape(_EXT_SUFFIX))
    for name in os.listdir(d):
        if name != keep and stale.fullmatch(name):
            try:
                os.remove(os.path.join(d, name))
            except OSError:
                pass   # removed by another process, or not ours to remove


def _load(path: str) -> ModuleType:
    """The extension module in the file at path."""
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_MODULE, path, loader=loader))
    loader.exec_module(module)
    return module


def load_library(cc: str = "cc") -> ModuleType | None:
    """The compiled kernels, or None with one warning naming the cause when
    the module cannot be built or loaded."""
    try:
        return _load(_build_library(cc))
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        log.warning("compiled kernels unavailable (%s; building them needs a C compiler "
                    "'cc' and the Python headers, Python.h under %s): coevnet._native.LIB "
                    "is None, so every kernel call runs its reference: closure integration "
                    "and the Gillespie engine in pure python, about 260 and 65 times "
                    "slower, CSV rows by python formatting, about 9 times slower, and the "
                    "micro flow, its steps and the weight nullcline on numpy alone, about "
                    "8 times slower for the epsilon sweep at N=4", exc, _INCLUDE)
        return None


LIB = load_library()
