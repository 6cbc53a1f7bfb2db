"""Run one coevnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closure-scan --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Everything runs in this one process with ``workers=1``.

* Set-up (``setup_s``): import coevnet afresh, build the workload's inputs
  from the seed and make one warm-up call; repeated ``SETUP_REPS`` times,
  the median is reported.
* Measurement: the workload's fixed batch of ops runs again and again until
  ``--seconds`` have passed (at least ``MIN_BATCHES`` times).  ``wall_s`` is
  the median batch time; every op's output is checked after each batch.
* Every set-up and batch time is scaled to the reference machine speed by
  the ``probe`` runs right before and after it (see ``probe``); the
  unscaled medians are printed too.
* ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
  untraced and traced batches and reports the per-layer metrics of the
  traced ones (medians over batches) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the same numbers for a reader, the environment block and the failed
checks.  A full record (per-batch times, environment) is written to
``.perfbench_out/`` in the checkout, with the spans of the last traced
batch.  ``--write-reference`` records the outputs of the default seed into
``perfbench/reference.json`` instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.metadata
import importlib.util
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy

from layers import ANCESTORS, install, layer_metrics
from tracer import Summary, Tracer, dump
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPS = 7
MIN_BATCHES = 4
# Seconds the speed probe takes on the reference machine (the two-core
# x86_64 machine the benchmark was defined on, in a quiet spell).
PROBE_REF_S = 0.1


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def probe() -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do.

    Interpreter arithmetic with list and dict updates, numpy scalar indexing
    and ``Generator.random`` calls (as in the jump engine), small numpy
    vector operations (as in the integrators) and float formatting (as in
    the CSV writers).  The probe does not touch coevnet.  Timings are scaled
    by ``PROBE_REF_S`` over the mean of the probes taken right before and
    after them, so that a slow spell of the shared machine, which slows
    probe and workload alike, cancels out.
    """
    t0 = time.perf_counter()
    table = list(range(4096))
    index = {}
    x, acc = 1, 0.0
    for i in range(60_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x & 4095
        table[j], table[i & 4095] = table[i & 4095], table[j]
        index[j] = i
        acc += (x % 1000) * 1e-3
    rng = numpy.random.default_rng(0)
    W = numpy.zeros((400, 400), dtype=numpy.int8)
    for _ in range(30_000):
        i, j = int(rng.random() * 400), int(rng.random() * 400)
        W[i, j] = 1 - W[j, i]
    a = numpy.zeros(32)
    for _ in range(6000):
        a = a * 0.999 + 1.0
    text = ",".join(f"{v:.17g}" for v in numpy.linspace(0.0, 1.0, 30_000))
    if not (len(text) and acc > 0 and a[0] > 0):
        raise RuntimeError("speed probe computed nothing")
    return time.perf_counter() - t0


def fresh_import():
    """Import coevnet (and its CLI) as a new process would."""
    for name in [n for n in sys.modules if n == "coevnet" or n.startswith("coevnet.")]:
        del sys.modules[name]
    importlib.import_module("coevnet.cli")
    pkg = sys.modules["coevnet"]
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(SRC, "coevnet") + os.sep):
        raise BenchError(f"imported coevnet from {pkg.__file__}, not from {SRC}")
    return pkg


def _scale(probes) -> float:
    """Factor that turns a time measured between the last two probes into
    seconds at the reference speed."""
    return 2 * PROBE_REF_S / (probes[-2] + probes[-1])


def set_up(workload, seed: int, workdir: str):
    """Set up SETUP_REPS times; returns (pkg, inputs, times, scales)."""
    times, scales, probes = [], [], [probe()]
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        pkg = fresh_import()
        inp = workload.inputs(pkg, seed, workdir)
        workload.warmup(pkg, inp)
        times.append(time.perf_counter() - t0)
        probes.append(probe())
        scales.append(_scale(probes))
    return pkg, inp, times, scales


def run_batch(ops, tracer=None):
    """Run every op once, inside a ``bench.batch`` span when traced.

    Returns (wall seconds, [(label, output, exception)]).
    """
    results = []

    def batch():
        for label, op in ops:
            try:
                results.append((label, op(), None))
            except Exception as exc:  # an op that raises is a failed op
                results.append((label, None, exc))

    if tracer is not None:
        batch = tracer.wrap(batch, "bench.batch")
    gc.collect()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        batch()
        wall = time.perf_counter() - t0
    return wall, results


def check_batch(workload, pkg, inp, results, ref) -> list[str]:
    """Failure messages, one list entry per failed op."""
    failures = []
    for label, out, exc in results:
        if exc is not None:
            errs = [f"{label}: raised " + "".join(traceback.format_exception_only(exc)).strip()]
        else:
            try:
                errs = workload.check(pkg, inp, label, out)
                if ref is not None:
                    if label in ref:
                        errs += workload.check_reference(pkg, inp, label, out, ref[label])
                    else:
                        errs.append(f"{label}: no reference output recorded")
            except Exception as exc:  # a check that cannot read the output fails the op
                errs = [f"{label}: output check raised {type(exc).__name__}: {exc}"]
        if errs:
            failures.append("; ".join(errs))
    return failures


def git_commit(root: str) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment(pkg, workload: str, seed: int, trace: int) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    closures = sys.modules["coevnet.closures"]
    loop = getattr(closures, "_integrate_loop", None)
    if loop is not None and loop is getattr(closures, "_integrate_loop_py", None):
        closure_loop = "python"
    elif loop is not None:
        closure_loop = f"{type(loop).__module__}.{type(loop).__qualname__}"
    else:
        closure_loop = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "closure_loop": closure_loop,
        "coevnet": getattr(pkg, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, pkg, inp, seconds: float, trace: bool, ref):
    """Repeat the batch until ``seconds`` have passed; see the module docstring."""
    untraced_ops = workload.ops(pkg, inp)
    walls, traced_walls, per_batch_layers = [], [], []
    scales, traced_scales = [], []
    last_spans = []
    attempted, failures = 0, []
    tracer = Tracer() if trace else None
    probes = [probe()]
    start = time.perf_counter()
    k = 0
    while k < MIN_BATCHES or time.perf_counter() - start < seconds:
        traced = trace and k % 2 == 1
        workload.reset(inp)
        if traced:
            missing = install(tracer)
            if k == 1:
                for name in missing:
                    print(f"note: {name} is not defined; its metrics read 0", file=sys.stderr)
            try:
                t_inp = {key: tracer.instrument_model(v) if isinstance(v, pkg.SmoothModel) else v
                         for key, v in inp.items()}
                wall, results = run_batch(workload.ops(pkg, t_inp), tracer)
            finally:
                tracer.restore()
            spans = tracer.take()
            summary = Summary(spans, ANCESTORS)
            metrics = layer_metrics(summary)
            metrics["bench.accounted_share"] = (sum(summary.layer_self.values()) / wall, "ratio")
            per_batch_layers.append(metrics)
            traced_walls.append(wall)
            last_spans = spans
        else:
            wall, results = run_batch(untraced_ops)
            walls.append(wall)
        probes.append(probe())
        (traced_scales if traced else scales).append(_scale(probes))
        attempted += len(results)
        failures += check_batch(workload, pkg, inp, results, ref)
        k += 1
    return {"walls": walls, "scales": scales, "traced_walls": traced_walls,
            "traced_scales": traced_scales, "probes": probes, "layers": per_batch_layers,
            "spans": last_spans, "attempted": attempted, "failures": failures}


def _scaled(times, scales):
    return [t * s for t, s in zip(times, scales)]


def summarize(res, peak_rss_mb, trace: bool) -> dict:
    """The metrics of the result line, as name -> (value, unit)."""
    wall = _median(_scaled(res["walls"], res["scales"]))
    if not trace:
        return {
            "setup_s": (_median(_scaled(res["setup_times"], res["setup_scales"])), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    batches = res["layers"]
    metrics = {n: (_median([b[n][0] for b in batches]), unit)
               for n, (_, unit) in sorted(batches[0].items())}
    traced = _median(_scaled(res["traced_walls"], res["traced_scales"]))
    metrics["bench.traced_wall_s"] = (_median(res["traced_walls"]), "s")
    metrics["bench.trace_overhead_ratio"] = (traced / wall - 1.0, "ratio")
    return metrics


def report(workload, args, env, res, metrics, peak_rss_mb) -> None:
    """Readable lines on standard output, and the full record in OUT_DIR."""
    walls, setup_times = res["walls"], res["setup_times"]
    attempted, failed = res["attempted"], len(res["failures"])
    scaled = _scaled(walls, res["scales"])
    lo, hi = _quartiles(scaled)
    speed = PROBE_REF_S / _median(res["probes"])
    print(f"perfbench {workload.name}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"machine speed {speed:.3f} of the reference (median of {len(res['probes'])} probes)")
    print(f"setup_s      {_median(_scaled(setup_times, res['setup_scales'])):.4f} s  "
          f"(median of {len(setup_times)} set-ups; {_median(setup_times):.4f} s unscaled)")
    print(f"wall_s       {_median(scaled):.4f} s  (median of {len(walls)} untraced batches; "
          f"quartiles {lo:.4f} .. {hi:.4f}; {_median(walls):.4f} s unscaled)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"fail_ratio   {failed / attempted:.4g}  ({failed} failed of {attempted} ops)")
    if args.trace:
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"  {name:45s} {value:.6g} {unit}")
    for msg in res["failures"][:20]:
        print("FAILED " + msg)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    record = {k: v for k, v in res.items() if k not in ("layers", "spans")}
    record.update(env=env, peak_rss_mb=peak_rss_mb,
                  metrics={n: v for n, (v, _) in metrics.items()})
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    if res["spans"]:
        dump(res["spans"], stem + "-spans.jsonl")


def write_reference(workload, pkg, inp):
    """Record the default seed's op fingerprints into reference.json."""
    workload.reset(inp)
    wall, results = run_batch(workload.ops(pkg, inp))
    failures = check_batch(workload, pkg, inp, results, None)
    if failures:
        raise BenchError("refusing to record a reference from failing ops: " + "; ".join(failures))
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            data = json.load(f)
    data[workload.name] = {
        "seed": DEFAULT_SEED,
        "ops": {label: workload.fingerprint(pkg, inp, label, out) for label, out, _ in results},
    }
    with open(REFERENCE, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(results)} reference outputs for {workload.name} ({wall:.2f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coevnet", "__init__.py")):
        raise BenchError(f"no coevnet sources under {SRC}")
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # the numba-fallback warning would be printed at every fresh import
    logging.getLogger("coevnet").addHandler(logging.NullHandler())
    workdir = os.path.join(TMP_DIR, f"{workload.name}-{os.getpid()}")
    try:
        if args.write_reference:
            if args.seed != DEFAULT_SEED:
                raise BenchError(f"references are recorded for seed {DEFAULT_SEED} only")
            pkg, inp, _, _ = set_up(workload, args.seed, workdir)
            write_reference(workload, pkg, inp)
            return 0
        ref = None
        if args.seed == DEFAULT_SEED:
            with open(REFERENCE) as f:
                ref = json.load(f)[workload.name]["ops"]
        pkg, inp, setup_times, setup_scales = set_up(workload, args.seed, workdir)
        env = environment(pkg, workload.name, args.seed, args.trace)
        res = measure(workload, pkg, inp, args.seconds, bool(args.trace), ref)
        res.update(setup_times=setup_times, setup_scales=setup_scales)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = summarize(res, peak_rss_mb, bool(args.trace))
    report(workload, args, env, res, metrics, peak_rss_mb)
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
