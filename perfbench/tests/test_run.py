"""Tests of how a run turns batch and set-up times into metrics."""

import pytest

import run


def test_times_are_scaled_by_the_probes_around_them():
    assert run._scale([0.1, 0.3]) == pytest.approx(2 * run.PROBE_REF_S / 0.4)
    res = {
        "walls": [1.0, 2.0, 4.0],
        "scales": [1.0, 0.5, 0.25],          # a spell that slows everything
        "setup_times": [0.2, 0.4],
        "setup_scales": [0.5, 0.25],
    }
    m = run.summarize(res, peak_rss_mb=50.0, trace=False)
    assert m["wall_s"] == (1.0, "s")
    assert m["setup_s"] == (0.1, "s")
    assert m["peak_rss_mb"] == (50.0, "MB")


def test_trace_overhead_compares_scaled_medians():
    res = {
        "walls": [1.0, 1.0], "scales": [1.0, 1.0],
        "traced_walls": [3.0, 3.0], "traced_scales": [0.5, 0.5],
        "layers": [{"closures.steps": (10.0, "count")}, {"closures.steps": (10.0, "count")}],
    }
    m = run.summarize(res, peak_rss_mb=50.0, trace=True)
    assert m["bench.trace_overhead_ratio"][0] == pytest.approx(0.5)
    assert m["bench.traced_wall_s"] == (3.0, "s")
    assert m["closures.steps"] == (10.0, "count")


def test_probe_takes_time():
    assert run.probe() > 0.0
