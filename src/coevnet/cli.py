"""Experiment driver: JSON configs in, CSV/JSON artifacts plus a manifest out.

Each experiment kind is one ``Kind`` record in ``SPECS``: its typed required
and optional fields, a ``build`` and a ``run``.  ``build`` parses and
range-checks the config, seeds ``default_rng(seed)`` and draws all initial
data (model and kernels, states, weights including the nullcline solve,
discrete configurations, closure initial moments).  ``run`` integrates the
built experiment and writes its artifacts.

``validate`` builds every config (each leg of a top-level ``sweep`` list)
without running it, so it exits with the code ``run`` would give for any
config that fails to build.  ``run`` builds every leg once, up front, runs
no leg if one fails to build, runs the legs (and a ``compare`` run's replicas)
on ``_pool``'s forked workers, one per usable CPU, and writes a manifest
recording the config hash, seeds, tool version and the wall times.

Exit codes: 0 success, 2 config error, 3 runtime model error, 4 invariant
violation.  Failures emit a machine-readable error JSON on stdout; a leg
that fails while running also gets an ``error.json`` in its output directory.
In a sweep the first leg to fail, in sweep order, decides the exit code and
the error JSON, and no manifest is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__, _pool, io
from .characteristics import (
    CharacteristicEnsemble,
    integrate_characteristics_conditional,
    integrate_characteristics_wc,
    make_wc_ensemble,
    uniform_masses,
)
from .closures import (
    check_continuation,
    check_initial_moments,
    closure_rhs,
    continue_small_epsilon,
    integrate_closure,
    linearized_jacobian,
    polarization_stable,
    stationary_polarized,
    with_cross_creation,
)
from .compare import (check_comparison_grid, check_epsilon_sweep, polarized_link_config,
                      run_comparison, run_epsilon_sweep)
from .errors import CoevnetError, ConfigError, InvariantViolation
from .jumpsim import DiscreteConfiguration, HybridConfiguration, simulate_hybrid_bc, simulate_minimal, simulate_voter
from .microsim import (
    AgentConfiguration,
    _nullcline_array,
    check_diffusive_model,
    integrate_micro,
    simulate_diffusive,
)
from .models import MODEL_SCHEMA, MinimalParams, catalog
from .moments import MinimalMoments
from .stepping import grid_steps

ENV_OUT = "COEVNET_OUT"

log = logging.getLogger(__name__)


# -- typed values ----------------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite JSON number; bools are not numbers."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _typed(ok: Callable, must: str) -> Callable:
    """A field parser: (value, field name) -> the value unchanged if ok(value)."""
    def parse(v, name):
        if not ok(v):
            raise ConfigError(f"{name} must {must}, got {v!r}", field=name)
        return v
    return parse


def _choice(*options) -> Callable:
    return _typed(lambda v: v in options, "be " + " or ".join(f"'{o}'" for o in options))


_number = _typed(_is_number, "be a finite number")
_count = _typed(lambda v: _is_int(v) and v >= 1, "be a positive integer")
_population = _typed(lambda v: _is_int(v) and v >= 2, "be an integer >= 2")
_positive = _typed(lambda v: _is_number(v) and v > 0, "be a positive number")
_horizon = _typed(lambda v: _is_number(v) and v >= 0, "be a nonnegative number")
_unit = _typed(lambda v: _is_number(v) and 0 <= v <= 1, "lie in [0, 1]")
_rate = _typed(lambda v: _is_number(v) and v >= 0, "be a finite nonnegative number")
_seed = _typed(lambda v: _is_int(v) and v >= 0, "be a nonnegative integer")
_flag = _typed(lambda v: isinstance(v, bool), "be true or false")
_text = _typed(lambda v: isinstance(v, str), "be a string")
_map = _typed(lambda v: isinstance(v, dict), "be a map")
_eps_list = _typed(lambda v: isinstance(v, list) and v and all(map(_is_number, v)),
                   "be a non-empty list of numbers")


def _param(spec: dict, key: str, default, where: str) -> float:
    return float(_number(spec.get(key, default), f"{where}.{key}"))


def _check_subkeys(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}", field=where)


# -- kernels, models and initial data -----------------------------------------

# kernel form -> its numeric parameters with their defaults
_KERNEL_PARAMS = {"identity": {}, "linear": {"slope": 1.0},
                  "gaussian": {"amplitude": 1.0, "length": 1.0}, "constant": {"value": 1.0},
                  "sigmoid": {}, "tanh": {"gain": 1.0, "scale": 1.0},
                  "indicator": {"threshold": 1.0}}


def _gaussian(a: float, ell2: float, on_states: bool):
    """x -> a exp(-x^2 / ell2), x^2 summed over the state axis if on_states; bitwise
    so, in place on its own temporaries, with (-x) / ell2 as x / (-ell2), a
    length-1 state axis read, not summed, and a unit a or ell2 folded away."""
    def gaussian(x):
        e = np.square(np.asarray(x, dtype=float))
        if on_states:
            e = e[..., 0] if e.shape[-1] == 1 else np.sum(e, axis=-1)
        out = e if e.ndim else None   # a 0-d result is a numpy scalar, not an array
        e = np.negative(e, out=out) if ell2 == 1.0 else np.divide(e, -ell2, out=out)
        e = np.exp(e, out=out)
        return e if a == 1.0 else np.multiply(a, e, out=out)
    return gaussian


def kernel_from_spec(spec, role: str):
    """Build a named kernel callable from a {"form": ..., ...} map."""
    if not isinstance(spec, dict) or "form" not in spec:
        raise ConfigError(f"kernel spec for {role!r} needs a 'form' key", field=role)
    form = spec["form"]
    if not isinstance(form, str) or form not in _KERNEL_PARAMS:
        raise ConfigError(f"unknown kernel form {form!r} for {role!r}", field=role)
    _check_subkeys(spec, {"form", *_KERNEL_PARAMS[form]}, role)
    p = {key: _param(spec, key, d, role) for key, d in _KERNEL_PARAMS[form].items()}
    # (..., m) -> (...) rather than elementwise: the weight surface W0 and the
    # model kernels the schema marks so, which only three forms can fill
    on_states = role == "W0" or any(kernels.get(role) for kernels, _ in MODEL_SCHEMA.values())
    if on_states and form not in ("gaussian", "constant", "indicator"):
        raise ConfigError(f"kernel form {form!r} for {role!r} maps each state component; "
                          f"{role!r} needs a scalar of the state", field=role)
    if form == "identity":
        return lambda x: np.asarray(x, dtype=float)
    if form == "linear":
        return lambda x: p["slope"] * np.asarray(x, dtype=float)
    if form == "gaussian":
        return _gaussian(p["amplitude"], p["length"] ** 2, on_states)
    if form == "constant":
        if on_states:
            return lambda x: np.full(np.asarray(x).shape[:-1], p["value"])
        return lambda x: np.full(np.shape(x), p["value"])
    if form == "sigmoid":
        return lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
    if form == "tanh":
        return lambda x: p["gain"] * np.tanh(p["scale"] * np.asarray(x, dtype=float))
    if on_states:   # the bounded-confidence kernel: 1 where the norm |x| < threshold
        return lambda x: (np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
                          < p["threshold"]).astype(float)
    return lambda d: (np.asarray(d, dtype=float) < p["threshold"]).astype(float)


def model_from_spec(spec, field: str = "model") -> "SmoothModel":
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("model spec needs a 'name' key", field=field)
    _check_subkeys(spec, {"name", "params"}, field)
    name = spec["name"]
    if not isinstance(name, str) or name not in MODEL_SCHEMA:
        raise ConfigError(f"unknown model name {name!r}", field="model.name")
    params = _map(spec.get("params", {}), "model.params")
    kernels, numbers = MODEL_SCHEMA[name]
    _check_subkeys(params, {*kernels, *numbers}, "model.params")
    for req in (*kernels, *(k for k, d in numbers.items() if d is None)):
        if req not in params:
            raise ConfigError(f"{name} requires model.params.{req}", field=f"model.params.{req}")
    args = {k: kernel_from_spec(params[k], k) for k in kernels}
    for k, d in numbers.items():   # an int default marks a count
        args[k] = (_count(params.get(k, d), f"model.params.{k}") if isinstance(d, int)
                   else _param(params, k, d, "model.params"))
    try:
        return catalog(name, args)
    except CoevnetError as exc:
        # a model that fails its own construction checks is a config problem
        raise ConfigError(f"invalid model spec: {exc}", field=field) from exc


def _rates_from_config(raw, name: str = "rates") -> MinimalParams:
    if not isinstance(raw, dict):
        raise ConfigError("rates must be a map of rate names to values", field=name)
    keys = [rate.name for rate in fields(MinimalParams)]
    _check_subkeys(raw, keys, name)
    return MinimalParams(**{key: float(_rate(raw.get(key, 0.0), f"{name}.{key}")) for key in keys})


def _values(spec, shape: tuple, where: str) -> np.ndarray:
    _check_subkeys(spec, {"values"}, where)
    try:
        arr = np.asarray(spec["values"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.values must be numbers: {exc}", field=f"{where}.values") from None
    if arr.ndim == 1 and shape[1] == 1:   # a list of scalar states
        arr = arr[:, None]
    if arr.shape != shape:
        raise ConfigError(f"{where}.values must have shape {shape}", field=f"{where}.values")
    return arr


def _states_from_spec(spec, N: int, m: int, rng, where: str) -> np.ndarray:
    if not isinstance(spec, dict):
        raise ConfigError("states spec must be a map", field=where)
    if "values" in spec:
        return _values(spec, (N, m), where)
    dist = spec.get("dist")
    if dist == "uniform":
        _check_subkeys(spec, {"dist", "low", "high"}, where)
        return rng.uniform(_param(spec, "low", -1.0, where), _param(spec, "high", 1.0, where),
                           size=(N, m))
    if dist == "normal":
        _check_subkeys(spec, {"dist", "mean", "std"}, where)
        return rng.normal(_param(spec, "mean", 0.0, where), _param(spec, "std", 1.0, where),
                          size=(N, m))
    raise ConfigError(f"{where} needs 'values' or dist in {{uniform, normal}}", field=where)


def _weights_from_spec(spec, N: int, rng, model, states) -> np.ndarray:
    where = "init.weights"
    if not isinstance(spec, dict):
        raise ConfigError("weights spec must be a map", field=where)
    if "values" in spec:
        return _values(spec, (N, N), where)
    if spec.get("nullcline"):
        _check_subkeys(spec, {"nullcline", "offset"}, where)
        offset = _param(spec, "offset", 0.0, where)
        i, j = np.triu_indices(N, 1)
        W = np.zeros((N, N))
        W[i, j] = W[j, i] = _nullcline_array(model, states[i], states[j]) + offset
        return W
    dist = spec.get("dist")
    if dist == "uniform":
        _check_subkeys(spec, {"dist", "low", "high"}, where)
        W = rng.uniform(_param(spec, "low", 0.0, where), _param(spec, "high", 1.0, where),
                        size=(N, N))
        W = np.triu(W, 1)
        return W + W.T
    if dist == "constant":
        _check_subkeys(spec, {"dist", "value"}, where)
        W = np.full((N, N), _param(spec, "value", 0.0, where))
        np.fill_diagonal(W, 0.0)
        return W
    raise ConfigError("init.weights needs 'values', 'nullcline' or dist in {uniform, constant}",
                      field=where)


def _required(init: dict, keys, allowed=None):
    _check_subkeys(init, allowed or keys, "init")
    for key in keys:
        if key not in init:
            raise ConfigError(f"init.{key} is required", field=f"init.{key}")


def _link_densities(init: dict, keys=("rho_p", "p_pp", "p_mm", "p_pm")) -> list[float]:
    _required(init, keys)
    return [float(_unit(init[key], f"init.{key}")) for key in keys]


def _random_links(rng, N: int, link_prob: float) -> np.ndarray:
    W = (rng.random((N, N)) < link_prob).astype(np.int8)
    W = np.triu(W, 1)
    return W + W.T


# -- builds: add the initial data to the parsed fields ---------------------------


def _build_agents(x):
    _check_subkeys(x.init, {"states", "weights"}, "init")
    if "states" not in x.init or "weights" not in x.init:
        raise ConfigError("init needs 'states' and 'weights'", field="init")
    rng = np.random.default_rng(x.seed)
    states = _states_from_spec(x.init["states"], x.N, x.model.m, rng, "init.states")
    weights = _weights_from_spec(x.init["weights"], x.N, rng, x.model, states)
    x.agents = AgentConfiguration(states=states, weights=weights)


def _build_diffusive(x):
    _build_agents(x)
    check_diffusive_model(x.model)


def _build_minimal(x):
    x.disc = polarized_link_config(x.N, *_link_densities(x.init), np.random.default_rng(x.seed))


def _build_voter(x):
    rho_p, link_prob = _link_densities(x.init, ("rho_p", "link_prob"))
    rng = np.random.default_rng(x.seed)
    states = np.where(rng.random(x.N) < rho_p, 1, -1)
    W = _random_links(rng, x.N, link_prob)
    x.disc = DiscreteConfiguration(states=states.astype(np.int8), weights=W)


def _build_hybrid(x):
    _required(x.init, ("states",), ("states", "link_prob"))
    rng = np.random.default_rng(x.seed)
    states = _states_from_spec(x.init["states"], x.N, 1, rng, "init.states")
    W = _random_links(rng, x.N, float(_unit(x.init.get("link_prob", 0.0), "init.link_prob")))
    x.hybrid = HybridConfiguration(states=states, weights=W)


def _build_closure(x):
    _check_subkeys(x.init, {"moments", "stationary"}, "init")
    if ("moments" in x.init) == ("stationary" in x.init):
        raise ConfigError("closure init needs exactly one of 'moments' or 'stationary'",
                          field="init")
    if "stationary" in x.init:
        st = _map(x.init["stationary"], "init.stationary")
        _check_subkeys(st, {"rho_p", "g_pm"}, "init.stationary")
        x.m0 = stationary_polarized(x.rates, _param(st, "rho_p", None, "init.stationary"),
                                    _param(st, "g_pm", None, "init.stationary"))
    else:
        vals = x.init["moments"]
        if not isinstance(vals, list) or len(vals) != 6:
            raise ConfigError("init.moments must list the six moment values", field="init.moments")
        try:
            x.m0 = MinimalMoments(*[float(_number(v, "init.moments")) for v in vals])
        except InvariantViolation as exc:
            raise ConfigError(f"init.moments is not a valid moment vector: {exc}",
                              field="init.moments") from exc
    check_initial_moments(x.m0)


def _build_stationary(x):
    x.point = stationary_polarized(x.rates, float(x.rho_p), float(x.g_pm))
    x.residuals = {kind: float(np.max(np.abs(closure_rhs(x.point, x.rates, kind))))
                   for kind in ("conditional", "kirkwood")}


def _build_continuation(x):
    x.branch_rates = [with_cross_creation(x.rates, float(eps)) for eps in x.eps_list]
    for p in x.branch_rates:
        check_continuation(p, float(x.rho_p), x.kind_closure)


def _build_characteristics(x):
    init = x.init
    _required(init, ("anchors",), ("anchors", "W0", "weights"))
    if x.variant == "wc" and "W0" not in init:
        raise ConfigError("wc variant requires init.W0", field="init.W0")
    if x.variant == "conditional" and "weights" not in init and "W0" not in init:
        raise ConfigError("conditional variant requires init.weights or init.W0",
                          field="init.weights")
    if "W0" in init:
        W0 = kernel_from_spec(init["W0"], "W0")
        x.surface = lambda s, sig: W0(np.asarray(s, dtype=float) - np.asarray(sig, dtype=float))
    rng = np.random.default_rng(x.seed)
    anchors = _states_from_spec(init["anchors"], x.M, x.model.m, rng, "init.anchors")
    if x.variant == "wc" or "weights" not in init:
        x.ensemble = make_wc_ensemble(anchors, x.surface)
        return
    W = _weights_from_spec(init["weights"], x.M, rng, x.model, anchors)
    np.fill_diagonal(W, 0.0)
    x.ensemble = CharacteristicEnsemble(anchors=anchors, pair_weights=W,
                                        masses=uniform_masses(x.M))


def _build_compare(x):
    _link_densities(x.init)   # each replica draws its own configuration when run
    check_comparison_grid(x.N, x.runs, x.T, x.dt)


def _build_epsilon_sweep(x):
    _build_agents(x)
    check_epsilon_sweep(x.eps_list, x.T, x.dt, x.reduced_dt)


# -- runs: integrate a built experiment, write its artifacts ---------------------


def _write_configs(out_dir, times, configs) -> list[str]:
    io.write_states_csv(os.path.join(out_dir, "states.csv"), times, [c.states for c in configs])
    io.write_weights_csv(os.path.join(out_dir, "weights.csv"), times, [c.weights for c in configs])
    return ["states.csv", "weights.csv"]


def _run_micro(x, out_dir):
    """The micro and diffusive kinds: every sample_stride-th sample plus the last."""
    if x.kind == "diffusive":
        traj = simulate_diffusive(x.agents, x.model, dt=x.dt, T=x.T, seed=x.seed,
                                  sample_stride=x.sample_stride)
    else:
        traj = integrate_micro(x.agents, x.model, dt=x.dt, T=x.T, eps_w=x.eps_w, eps_s=x.eps_s,
                               method=x.method, sample_stride=x.sample_stride)
    return _write_configs(out_dir, traj.times, traj.configs)


def _run_minimal(x, out_dir):
    traj = simulate_minimal(x.disc, x.rates, T=x.T, seed=x.seed, sample_dt=x.sample_dt,
                            record_events=x.record_events)
    io.write_events_csv(os.path.join(out_dir, "events.csv"), traj.events)
    io.write_moments_csv(os.path.join(out_dir, "moments.csv"), traj.times, traj.moments)
    return _write_configs(out_dir, traj.times, traj.configs) + ["events.csv", "moments.csv"]


def _run_voter(x, out_dir):
    traj = simulate_voter(x.disc, prob_p=float(x.p), prob_q=float(x.q), T=x.T, seed=x.seed,
                          variant=x.variant, sample_dt=x.sample_dt,
                          record_events=x.record_events)
    io.write_events_csv(os.path.join(out_dir, "events.csv"), traj.events)
    return _write_configs(out_dir, traj.times, traj.configs) + ["events.csv"]


def _run_hybrid(x, out_dir):
    traj = simulate_hybrid_bc(x.hybrid, F=x.F, r=x.r, tau=x.tau, dt=x.dt, T=x.T, seed=x.seed,
                              sample_stride=x.sample_stride)
    return _write_configs(out_dir, traj.times, traj.configs)


def _run_closure(x, out_dir):
    traj = integrate_closure(x.m0, x.rates, x.kind_closure, dt=x.dt, T=x.T,
                             sample_stride=x.sample_stride)
    io.write_closure_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    io.write_json(os.path.join(out_dir, "summary.json"), {
        "status": traj.status, "clamp_events": traj.clamp_events,
        "kirkwood_artifact": traj.kirkwood_artifact,
        "final": traj.moments[-1], "t_final": traj.times[-1]})
    return ["trajectory.csv", "summary.json"]


def _run_stationary(x, out_dir):
    p, rho_p, m = x.rates, float(x.rho_p), x.point
    stable, margin = polarization_stable(p, rho_p)
    report = {
        "moments": m.as_array(),
        "rho_p": m.rho_p,
        "residual_conditional": x.residuals["conditional"],
        "residual_kirkwood": x.residuals["kirkwood"],
        "stability_condition_holds": bool(stable),
        "stability_margin": margin,
    }
    for kind in ("conditional", "kirkwood"):
        jac = linearized_jacobian(p, m, kind)
        report[f"eigenvalues_{kind}"] = {"re": np.real(jac.eigenvalues),
                                         "im": np.imag(jac.eigenvalues)}
        report[f"lambda_pm_{kind}"] = jac.lambda_pm
    io.write_json(os.path.join(out_dir, "stationary.json"), report)
    return ["stationary.json"]


def _run_continuation(x, out_dir):
    rho_p = float(x.rho_p)
    points = []
    for p in x.branch_rates:
        branch = continue_small_epsilon(p, rho_p, x.kind_closure)
        points.append({"eps": branch.eps, "moments": branch.moments.as_array(),
                       "f_pm": branch.moments.f_pm, "dfdeps": branch.dfdeps,
                       "residual": branch.residual,
                       "newton_iterations": branch.newton_iterations})
    io.write_json(os.path.join(out_dir, "branch.json"),
                  {"kind": x.kind_closure, "rho_p": rho_p, "points": points})
    return ["branch.json"]


def _run_characteristics(x, out_dir):
    if x.variant == "wc":
        traj = integrate_characteristics_wc(x.ensemble, x.model, x.surface, dt=x.dt, T=x.T,
                                            sample_stride=x.sample_stride)
    else:
        traj = integrate_characteristics_conditional(x.ensemble, x.model, dt=x.dt, T=x.T,
                                                     sample_stride=x.sample_stride)
    io.write_states_csv(os.path.join(out_dir, "anchors.csv"), traj.times,
                        [e.anchors for e in traj.ensembles], masses=traj.ensembles[0].masses)
    io.write_weights_csv(os.path.join(out_dir, "pair_weights.csv"), traj.times,
                         [e.pair_weights for e in traj.ensembles])
    io.write_json(os.path.join(out_dir, "injectivity.json"),
                  {"times": traj.times, "min_pair_distance": traj.min_pair_distance})
    return ["anchors.csv", "pair_weights.csv", "injectivity.json"]


def _run_compare(x, out_dir):
    rep = run_comparison(x.rates, N=x.N, runs=x.runs, T=x.T, dt=x.dt, seed=x.seed, init=x.init,
                         closure_dt=x.closure_dt, workers=_pool.usable_cpus())
    io.write_json(os.path.join(out_dir, "report.json"), rep.to_json_dict())
    io.write_error_curves_csv(os.path.join(out_dir, "error_curves.csv"), rep)
    io.write_moments_csv(os.path.join(out_dir, "mean_moments.csv"), rep.times, rep.mean_moments)
    return ["report.json", "error_curves.csv", "mean_moments.csv"]


def _run_epsilon_sweep(x, out_dir):
    rep = run_epsilon_sweep(x.model, x.agents, eps_list=x.eps_list, dt=x.dt, T=x.T,
                            reduced_dt=x.reduced_dt)
    io.write_json(os.path.join(out_dir, "sweep.json"), rep.to_json_dict())
    io.write_csv(os.path.join(out_dir, "gaps.csv"), ["eps", "gap"], list(zip(rep.eps, rep.gaps)))
    return ["sweep.json", "gaps.csv"]


# -- one record per kind -------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """The fields of one experiment kind, how to build it and how to run it.

    ``required`` maps field names to parsers, ``optional`` to (parser,
    default); both keep the order of the README's per-kind table.  A JSON
    null in an optional field whose default is None means that default.
    """

    required: dict
    optional: dict
    build: Callable      # (Experiment) -> None: checks ranges, adds the initial data
    run: Callable        # (Experiment, out_dir) -> artifact names


_STRIDE = {"sample_stride": (_count, 1)}
_CLOSURE_KIND = _choice("conditional", "kirkwood")

SPECS: dict[str, Kind] = {
    "micro": Kind(
        {"model": model_from_spec, "N": _population, "T": _horizon, "dt": _positive, "init": _map},
        {"eps_w": (_positive, 1.0), "eps_s": (_positive, 1.0),
         "method": (_choice("rk4", "euler", "rkf45"), "rk4"), **_STRIDE},
        _build_agents, _run_micro),
    "diffusive": Kind(
        {"model": model_from_spec, "N": _population, "T": _horizon, "dt": _positive, "init": _map},
        _STRIDE, _build_diffusive, _run_micro),
    "minimal": Kind(
        {"rates": _rates_from_config, "N": _population, "T": _horizon, "init": _map},
        {"sample_dt": (_positive, None), "record_events": (_flag, True)},
        _build_minimal, _run_minimal),
    "voter": Kind(
        {"N": _population, "T": _horizon, "p": _unit, "init": _map},
        {"q": (_unit, 0.5), "variant": (_choice("pq", "original"), "pq"),
         "sample_dt": (_positive, None), "record_events": (_flag, True)},
        _build_voter, _run_voter),
    "hybrid-bc": Kind(
        {"N": _population, "T": _horizon, "dt": _positive, "tau": _positive, "F": kernel_from_spec,
         "r": kernel_from_spec, "init": _map},
        _STRIDE, _build_hybrid, _run_hybrid),
    "closure": Kind(
        {"rates": _rates_from_config, "kind_closure": _CLOSURE_KIND, "T": _horizon,
         "dt": _positive, "init": _map},
        _STRIDE, _build_closure, _run_closure),
    "stationary": Kind(
        {"rates": _rates_from_config, "rho_p": _unit, "g_pm": _number},
        {}, _build_stationary, _run_stationary),
    "continuation": Kind(
        {"rates": _rates_from_config, "rho_p": _number, "kind_closure": _CLOSURE_KIND,
         "eps_list": _eps_list},
        {}, _build_continuation, _run_continuation),
    "characteristics": Kind(
        {"model": model_from_spec, "variant": _choice("wc", "conditional"), "M": _population,
         "T": _horizon, "dt": _positive, "init": _map},
        _STRIDE, _build_characteristics, _run_characteristics),
    "compare": Kind(
        {"rates": _rates_from_config, "N": _population, "runs": _count, "T": _horizon,
         "dt": _positive, "init": _map},
        {"closure_dt": (_positive, 1e-3)},
        _build_compare, _run_compare),
    "epsilon-sweep": Kind(
        {"model": model_from_spec, "N": _population, "eps_list": _eps_list, "T": _horizon,
         "dt": _positive, "init": _map},
        {"reduced_dt": (_positive, None)}, _build_epsilon_sweep, _run_epsilon_sweep),
}

KINDS = tuple(SPECS)

# optional keys every kind accepts
_COMMON = {"seed": (_seed, 0), "out": (_text, None), "label": (_text, "")}


class Experiment(SimpleNamespace):
    """A built config: ``kind``, every field parsed (defaults filled in), the
    one-line ``summary`` and the initial data of its kind."""


class Plan(list):
    """The built experiments of one config file: one, or one per sweep leg."""

    sweep = False

    def __str__(self):
        if not self.sweep:
            return self[0].summary
        return "sweep of " + "; ".join(f"[{k}] {x.summary}" for k, x in enumerate(self))


def build(cfg) -> Experiment:
    """Parse, range-check and draw the initial data of one experiment config."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}", field="kind")
    spec = SPECS[kind]
    optional = {**_COMMON, **spec.optional}
    unknown = set(cfg) - {"kind", *spec.required, *optional}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} for kind {kind!r}",
                          field=sorted(unknown)[0])
    for name in spec.required:
        if name not in cfg:
            raise ConfigError(f"missing required field {name!r} for kind {kind!r}", field=name)
    x = Experiment(kind=kind)
    for name, parse in spec.required.items():
        setattr(x, name, parse(cfg[name], name))
    for name, (parse, default) in optional.items():
        absent = name not in cfg or (cfg[name] is None and default is None)
        setattr(x, name, default if absent else parse(cfg[name], name))
    spec.build(x)
    if "sample_stride" in spec.optional:   # the fixed-step kinds
        grid_steps(x.dt, x.T, x.sample_stride)
    x.summary = f"kind={kind} seed={x.seed}" + (f" label={x.label}" if x.label else "")
    x.summary += "".join(f" {key}={cfg[key]}" for key in ("N", "M", "runs", "T", "dt") if key in cfg)
    return x


def validate_config(cfg) -> Plan:
    """Build every experiment of a config (each sweep leg) without running any.

    Returns the plan, whose ``str`` is the one-line summary; raises the
    CoevnetError that ``run`` would raise while building.
    """
    plan = Plan()
    if isinstance(cfg, dict) and "sweep" in cfg:
        _check_subkeys(cfg, {"sweep"}, "config")
        if not isinstance(cfg["sweep"], list) or not cfg["sweep"]:
            raise ConfigError("sweep must be a non-empty list of configs", field="sweep")
        plan.sweep = True
        for sub in cfg["sweep"]:
            if isinstance(sub, dict) and "out" in sub:   # the legs write under the run's out
                raise ConfigError("out cannot be set in a sweep leg", field="out")
            plan.append(build(sub))
    else:
        plan.append(build(cfg))
    return plan


def run_experiment(cfg, out_dir: str) -> list[str]:
    """Run one experiment into out_dir and return its artifact names.

    ``cfg`` is a single-experiment config, or an Experiment already built
    from one (a leg of the plan ``validate_config`` returns).
    """
    x = cfg if isinstance(cfg, Experiment) else build(cfg)
    os.makedirs(out_dir, exist_ok=True)
    return SPECS[x.kind].run(x, out_dir)


# -- entry points ---------------------------------------------------------------


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="config")
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config")
    return cfg, hashlib.sha256(raw).hexdigest()


def _emit_error(exc: CoevnetError, out_dir: str | None) -> int:
    code = 2 if isinstance(exc, ConfigError) else 4 if isinstance(exc, InvariantViolation) else 3
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    if getattr(exc, "field", None):
        payload["field"] = exc.field
    print(json.dumps(payload, sort_keys=True))
    if out_dir:
        try:
            io.write_json(os.path.join(out_dir, "error.json"), payload)
        except OSError:
            pass
    return code


def cmd_validate(config_path: str) -> int:
    try:
        plan = validate_config(_load_config(config_path)[0])
    except CoevnetError as exc:
        return _emit_error(exc, None)
    print(f"ok: {plan}")
    return 0


def cmd_run(config_path: str, cli_out: str | None) -> int:
    t0 = time.monotonic()
    try:
        cfg, cfg_hash = _load_config(config_path)
        plan = validate_config(cfg)
    except CoevnetError as exc:
        return _emit_error(exc, None)
    out_root = (cli_out or cfg.get("out") or os.environ.get(ENV_OUT)
                or os.path.join(os.getcwd(), "coevnet-out"))
    out_dirs = [os.path.join(out_root, f"sweep-{k:04d}") if plan.sweep else out_root
                for k in range(len(plan))]

    def leg(k: int) -> tuple[list[str], float]:   # its artifact names and wall time in s
        t1 = time.monotonic()
        return run_experiment(plan[k], out_dirs[k]), time.monotonic() - t1

    results = _pool.ordered(leg, len(plan), _pool.usable_cpus(), "legs")
    manifest_entries = []
    for x, out_dir in zip(plan, out_dirs):
        try:
            artifacts, wall_s = next(results)
        except CoevnetError as exc:
            return _emit_error(exc, out_dir)
        manifest_entries.append({"out_dir": out_dir, "kind": x.kind, "seed": x.seed,
                                 "artifacts": artifacts, "wall_s": wall_s})
    io.write_json(os.path.join(out_root, "manifest.json"), {
        "config_path": os.path.abspath(config_path),
        "config_sha256": cfg_hash,
        "resolved_config": cfg,
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - t0,
        "experiments": manifest_entries,
    })
    print(f"wrote {sum(len(e['artifacts']) for e in manifest_entries)} artifact(s) "
          f"to {out_root}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coevnet",
        description="Simulate co-evolving network models and validate pair closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", help="output directory (overrides config and env)")
    p_val = sub.add_parser("validate", help="build a config's initial data without running it")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.config)
    return cmd_run(args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
