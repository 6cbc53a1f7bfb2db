"""Which coevnet functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules.  Spans are named ``<module>.<function>``
so a span's layer is the text before the first dot; ``bench`` is the
benchmark itself (the batch loop and the tracer's counter bookkeeping).
``moments`` is only used by the output checks and ``errors`` holds no
code, so neither is wrapped.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import Counter

from tracer import Summary

LAYERS = ("models", "microsim", "stepping", "jumpsim", "closures",
          "characteristics", "compare", "io", "cli")

# Spans whose descendants are counted separately (see Summary.under).
ANCESTORS = ("microsim.integrate_reduced",)

IO_WRITERS = ("write_csv", "write_json", "write_states_csv", "write_weights_csv",
              "write_events_csv", "write_moments_csv", "write_closure_csv",
              "write_histogram_csv", "write_error_curves_csv")


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba
    return bind


def _n_steps(T, dt) -> int:
    return int(round(T / dt)) if T > 0 else 0


def install(tracer) -> list[str]:
    """Wrap the layer functions of the imported coevnet package.

    Returns the names that could not be wrapped because the package no
    longer defines them; their metrics read zero.
    """
    mods = {name: sys.modules[f"coevnet.{name}"] for name in LAYERS}
    missing: list[str] = []

    def patch(layer, attr, name=None, **kw):
        fn = getattr(mods[layer], attr, None)
        if fn is None:
            missing.append(f"{layer}.{attr}")
            return
        tracer.patch(fn, name or f"{layer}.{attr}", **kw)

    # closures
    fn = getattr(mods["closures"], "integrate_closure", None)
    if fn is not None:
        bind_closure = _binder(fn)

        def closure_counts(state, args, kwargs, traj):
            a = bind_closure(args, kwargs).arguments
            stopped = traj.status != "completed"
            steps = int(round(traj.times[-1] / a["dt"])) if stopped else _n_steps(a["T"], a["dt"])
            return {"steps": steps, "clamps": traj.clamp_events, "consensus_stops": int(stopped)}
        patch("closures", "integrate_closure", counters=closure_counts)
    patch("closures", "continue_small_epsilon",
          counters=lambda st, a, k, r: {"newton_iterations": r.newton_iterations})
    patch("closures", "linearized_jacobian")
    patch("closures", "stationary_polarized")

    # jumpsim: force event recording so events can be counted by kind, and
    # hand the caller the empty list it asked for
    fn = getattr(mods["jumpsim"], "simulate_minimal", None)
    if fn is not None:
        bind_minimal = _binder(fn)

        def record_events(args, kwargs):
            ba = bind_minimal(args, kwargs)
            wanted = ba.arguments["record_events"]
            ba.arguments["record_events"] = True
            return ba.args, ba.kwargs, wanted

        def event_counts(wanted, args, kwargs, traj):
            kinds = Counter(e[1] for e in traj.events)
            if not wanted:
                traj.events = []
            return {"events": sum(kinds.values()), "flip": kinds["flip"],
                    "create": kinds["create"], "remove": kinds["remove"]}
        patch("jumpsim", "simulate_minimal", prepare=record_events, counters=event_counts)

    # compare
    patch("compare", "run_comparison")
    patch("compare", "polarized_link_config")
    patch("compare", "run_epsilon_sweep")

    # microsim
    patch("microsim", "micro_rhs",
          counters=lambda st, a, k, r: {"pairs": (a[0] if a else k["cfg"]).states.shape[0] ** 2})
    fn = getattr(mods["microsim"], "integrate_micro", None)
    if fn is not None:
        bind_micro = _binder(fn)

        def micro_steps(state, args, kwargs, traj):
            a = bind_micro(args, kwargs).arguments
            return {"steps": _n_steps(a["T"], a["dt"])}
        patch("microsim", "integrate_micro", counters=micro_steps)
    patch("microsim", "integrate_reduced",
          counters=lambda st, a, k, r: {"steps": len(r.times) - 1})
    patch("microsim", "solve_weight_nullcline")

    # stepping: count right-hand-side evaluations per adaptive advance
    def count_rhs(args, kwargs):
        box = [0]
        f = args[0] if args else kwargs.pop("f")

        def counted(y):
            box[0] += 1
            return f(y)
        return (counted,) + tuple(args[1:]), kwargs, box
    patch("stepping", "rkf45_advance", prepare=count_rhs,
          counters=lambda box, a, k, r: {"rhs_evals": box[0]})

    # characteristics: both variants share one integrator
    for attr in ("integrate_characteristics_conditional", "integrate_characteristics_wc"):
        fn = getattr(mods["characteristics"], attr, None)
        if fn is None:
            missing.append(f"characteristics.{attr}")
            continue

        def char_counts(state, args, kwargs, traj, bind=_binder(fn)):
            a = bind(args, kwargs).arguments
            steps = _n_steps(a["T"], a["dt"])
            M = a["ens0"].anchors.shape[0]
            return {"steps": steps, "pairs": 4 * steps * M * M}
        patch("characteristics", attr, name="characteristics.integrate", counters=char_counts)

    # models: catalog models come back with traced U and V
    catalog = getattr(mods["models"], "catalog", None)
    if catalog is not None:
        def traced_catalog(*args, **kwargs):
            return tracer.instrument_model(catalog(*args, **kwargs))
        tracer.patch(catalog, "models.catalog", impl=traced_catalog)
    else:
        missing.append("models.catalog")

    # io: bytes of every CSV artifact, rows of weights.csv.  JSON artifacts
    # (the manifest) hold wall times and paths, so their size is not a count.
    def file_bytes(state, args, kwargs, result):
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}

    def weight_rows(state, args, kwargs, result):
        mats = args[2] if len(args) > 2 else kwargs["weight_mats"]
        rows = sum(len(W) * (len(W) - 1) for W in mats)
        return {"rows": rows, **file_bytes(state, args, kwargs, result)}
    for attr in IO_WRITERS:
        counters = {"write_weights_csv": weight_rows, "write_json": None}.get(attr, file_bytes)
        patch("io", attr, counters=counters)

    # cli
    patch("cli", "main", counters=lambda st, a, k, r: {"exit_nonzero": int(r != 0)})
    patch("cli", "validate_config")
    patch("cli", "run_experiment")
    return missing


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(s: Summary) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch, as name -> (value, unit)."""
    c = s.count
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    # closures
    steps = c["closures.integrate_closure"]["steps"]
    busy = s.busy["closures.integrate_closure"]
    put("closures.integrate_closure.calls", s.calls["closures.integrate_closure"], "count")
    put("closures.integrate_closure.busy_s", busy, "s")
    put("closures.steps", steps, "count")
    put("closures.us_per_step", _ratio(busy, steps, 1e6), "us")
    put("closures.clamp_events", c["closures.integrate_closure"]["clamps"], "count")
    put("closures.consensus_stops", c["closures.integrate_closure"]["consensus_stops"], "count")
    put("closures.continue_small_epsilon.busy_s", s.busy["closures.continue_small_epsilon"], "s")
    put("closures.newton_iterations", c["closures.continue_small_epsilon"]["newton_iterations"], "count")
    put("closures.linearized_jacobian.busy_s", s.busy["closures.linearized_jacobian"], "s")

    # jumpsim
    ev = c["jumpsim.simulate_minimal"]
    busy = s.busy["jumpsim.simulate_minimal"]
    put("jumpsim.simulate_minimal.calls", s.calls["jumpsim.simulate_minimal"], "count")
    put("jumpsim.simulate_minimal.busy_s", busy, "s")
    put("jumpsim.events", ev["events"], "count")
    for kind in ("flip", "create", "remove"):
        put(f"jumpsim.events.{kind}", ev[kind], "count")
    put("jumpsim.us_per_event", _ratio(busy, ev["events"], 1e6), "us")

    # compare
    put("compare.run_comparison.busy_s", s.busy["compare.run_comparison"], "s")
    put("compare.run_comparison.self_s", s.self_s["compare.run_comparison"], "s")
    put("compare.polarized_link_config.busy_s", s.busy["compare.polarized_link_config"], "s")
    put("compare.run_epsilon_sweep.self_s", s.self_s["compare.run_epsilon_sweep"], "s")

    # microsim
    calls = s.calls["microsim.micro_rhs"]
    busy = s.busy["microsim.micro_rhs"]
    pairs = c["microsim.micro_rhs"]["pairs"]
    put("microsim.micro_rhs.calls", calls, "count")
    put("microsim.micro_rhs.busy_s", busy, "s")
    put("microsim.micro_rhs.pairs", pairs, "count")
    put("microsim.ns_per_pair", _ratio(busy, pairs, 1e9), "ns")
    put("microsim.us_per_rhs_call", _ratio(busy, calls, 1e6), "us")
    put("microsim.integrate_micro.busy_s", s.busy["microsim.integrate_micro"], "s")
    put("microsim.integrate_micro.self_s", s.self_s["microsim.integrate_micro"], "s")
    put("microsim.integrate_micro.steps", c["microsim.integrate_micro"]["steps"], "count")
    red_steps = c["microsim.integrate_reduced"]["steps"]
    red_busy = s.busy["microsim.integrate_reduced"]
    put("microsim.integrate_reduced.busy_s", red_busy, "s")
    put("microsim.integrate_reduced.steps", red_steps, "count")
    put("microsim.reduced_ms_per_step", _ratio(red_busy, red_steps, 1e3), "ms")

    # stepping
    calls = s.calls["stepping.rkf45_advance"]
    put("stepping.rkf45_advance.calls", calls, "count")
    put("stepping.rkf45_advance.busy_s", s.busy["stepping.rkf45_advance"], "s")
    put("stepping.rhs_evals_per_advance",
        _ratio(c["stepping.rkf45_advance"]["rhs_evals"], calls), "count")

    # characteristics
    busy = s.busy["characteristics.integrate"]
    put("characteristics.integrate.busy_s", busy, "s")
    put("characteristics.integrate.steps", c["characteristics.integrate"]["steps"], "count")
    put("characteristics.ns_per_pair", _ratio(busy, c["characteristics.integrate"]["pairs"], 1e9), "ns")

    # models
    put("models.U.calls", s.calls["models.U"], "count")
    put("models.U.elements", c["models.U"]["elements"], "count")
    put("models.V.calls", s.calls["models.V"], "count")
    put("models.V.elements", c["models.V"]["elements"], "count")
    put("models.V.calls_per_reduced_step",
        _ratio(s.under[("models.V", "microsim.integrate_reduced")], red_steps), "count")
    put("models.catalog.busy_s", s.busy["models.catalog"], "s")

    # io: the writers never nest, so their busy times add up
    io_names = [f"io.{w}" for w in IO_WRITERS]
    rows = c["io.write_weights_csv"]["rows"]
    put("io.busy_s", sum(s.busy[n] for n in io_names), "s")
    put("io.bytes_written", sum(c[n]["bytes"] for n in io_names), "bytes")
    put("io.write_weights_csv.rows", rows, "count")
    put("io.write_weights_csv.busy_s", s.busy["io.write_weights_csv"], "s")
    put("io.ns_per_weight_row", _ratio(s.busy["io.write_weights_csv"], rows, 1e9), "ns")
    put("io.write_states_csv.busy_s", s.busy["io.write_states_csv"], "s")
    put("io.write_events_csv.busy_s", s.busy["io.write_events_csv"], "s")

    # cli
    put("cli.main.busy_s", s.busy["cli.main"], "s")
    put("cli.validate_config.busy_s", s.busy["cli.validate_config"], "s")
    put("cli.run_experiment.busy_s", s.busy["cli.run_experiment"], "s")
    put("cli.exit_nonzero", c["cli.main"]["exit_nonzero"], "count")

    # self time of every layer and of the benchmark: together they make up
    # the traced batch
    for layer in LAYERS + ("bench",):
        put(f"{layer}.self_s", s.layer_self[layer], "s")
    return out
