"""Tests of the workloads, their output checks and the benchmark definition."""

import json
import os
import pickle

import pytest

import coevnet
import coevnet.cli  # noqa: F401
from layers import ANCESTORS, install, layer_metrics
from tracer import Summary, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, compare_fingerprint

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _reference(name):
    with open(os.path.join(BENCH, "reference.json")) as f:
        return json.load(f)[name]["ops"]


def _inputs_blob(name, seed, workdir):
    inp = WORKLOADS[name].inputs(coevnet, seed, str(workdir))
    if name == "field-cli":
        with open(inp["config"], "rb") as f:
            return f.read()
    if name == "fast-network":   # the model holds lambdas, which do not pickle
        return pickle.dumps((inp["cfg"].states, inp["cfg"].weights))
    return pickle.dumps(inp)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    a = _inputs_blob(name, 3, tmp_path / "a")
    assert _inputs_blob(name, 3, tmp_path / "b") == a
    assert _inputs_blob(name, 4, tmp_path / "c") != a


def test_reference_outputs_pass_and_a_perturbed_reference_fails():
    w = WORKLOADS["fast-network"]
    inp = w.inputs(coevnet, DEFAULT_SEED, "")
    label, op = [o for o in w.ops(coevnet, inp) if o[0] == "integrate_micro.rkf45"][0]
    out = op()
    ref = _reference("fast-network")[label]
    assert w.check(coevnet, inp, label, out) == []
    assert w.check_reference(coevnet, inp, label, out, ref) == []
    bad = json.loads(json.dumps(ref))
    bad["states"][2][0] += 1e-9
    assert w.check_reference(coevnet, inp, label, out, bad) != []


def test_compare_fingerprint_is_exact_for_strings_and_tolerant_for_numbers():
    assert compare_fingerprint({"a": "x"}, {"a": "x"}, 0.0, "t") == []
    assert compare_fingerprint({"a": "x"}, {"a": "y"}, 0.0, "t") != []
    assert compare_fingerprint([1.0, 2.0], [1.0, 2.0 + 1e-13], 1e-12, "t") == []
    assert compare_fingerprint([1.0, 2.0], [1.0, 2.0 + 1e-11], 1e-12, "t") != []
    assert compare_fingerprint([1.0], [1.0, 2.0], 1.0, "t") != []
    assert compare_fingerprint({"a": 1.0}, {"b": 1.0}, 1.0, "t") != []


def test_closure_check_catches_a_mass_violation():
    w = WORKLOADS["closure-scan"]
    inp = w.inputs(coevnet, 1, "")
    p, m0 = inp["cases"][0]
    traj = coevnet.integrate_closure(m0, p, coevnet.ClosureKind.CONDITIONAL, dt=1e-3, T=0.05)
    assert w.check(coevnet, inp, "closure0.conditional", traj) == []
    traj.moments[-1, 0] += 1e-8
    assert w.check(coevnet, inp, "closure0.conditional", traj) != []


def test_traced_call_counts_closure_steps_and_restores():
    original = coevnet.integrate_closure
    w = WORKLOADS["closure-scan"]
    inp = w.inputs(coevnet, 1, "")
    p, m0 = inp["cases"][0]
    tr = Tracer()
    install(tr)
    try:
        tr.wrap(lambda: coevnet.integrate_closure(
            m0, p, coevnet.ClosureKind.KIRKWOOD, dt=1e-3, T=0.25), "bench.batch")()
    finally:
        tr.restore()
    assert coevnet.integrate_closure is original
    m = layer_metrics(Summary(tr.take(), ANCESTORS))
    assert m["closures.steps"][0] == 250
    assert m["closures.integrate_closure.calls"][0] == 1
    assert m["microsim.micro_rhs.calls"][0] == 0


def test_benchmark_json_matches_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    names = set(layer_metrics(Summary([], ANCESTORS)))
    names |= {"bench.accounted_share", "bench.traced_wall_s", "bench.trace_overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == names
    units = dict((n, u) for n, (_, u) in layer_metrics(Summary([], ANCESTORS)).items())
    for m in spec["per_layer"]:
        if m["name"] in units:
            assert m["unit"] == units[m["name"]], m["name"]
