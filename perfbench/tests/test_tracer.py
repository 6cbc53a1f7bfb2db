"""Tests of the span tracer: patching and restoring, and self-time arithmetic."""

import sys
import types

import pytest

from tracer import COUNTER_S, END, Summary, Tracer


def _spans(*rows):
    """Spans from (name, parent, start, end[, counters, counter_s]) rows."""
    out = []
    for row in rows:
        name, parent, start, end = row[:4]
        counters = row[4] if len(row) > 4 else None
        counter_s = row[5] if len(row) > 5 else 0.0
        out.append([name, parent, start, end, counters, counter_s])
    return out


def test_self_time_of_nested_spans():
    spans = _spans(
        ("bench.batch", -1, 0.0, 10.0),
        ("cli.main", 0, 1.0, 4.0),
        ("io.write_csv", 1, 2.0, 3.0, {"bytes": 7}),
        ("closures.integrate_closure", 0, 5.0, 9.0, {"steps": 3}, 0.5),
    )
    s = Summary(spans)
    assert s.self_s["bench.batch"] == pytest.approx(10.0 - 3.0 - 4.5)
    assert s.self_s["cli.main"] == pytest.approx(3.0 - 1.0)
    assert s.self_s["io.write_csv"] == pytest.approx(1.0)
    assert s.self_s["closures.integrate_closure"] == pytest.approx(4.0)
    # counter bookkeeping is charged to the benchmark, so the layers' self
    # times and the benchmark's add up to the root span
    assert s.layer_self["bench"] == pytest.approx(2.5 + 0.5)
    assert sum(s.layer_self.values()) == pytest.approx(10.0)
    assert s.count["io.write_csv"]["bytes"] == 7
    assert s.count["closures.integrate_closure"]["steps"] == 3


def test_busy_counts_recursion_once_and_under_counts_descendants():
    spans = _spans(
        ("cli.validate_config", -1, 0.0, 6.0),
        ("cli.validate_config", 0, 1.0, 2.0),
        ("cli.validate_config", 0, 3.0, 5.0),
        ("microsim.integrate_reduced", -1, 7.0, 9.0),
        ("models.V", 3, 7.5, 8.0),
        ("models.V", -1, 9.5, 10.0),
    )
    s = Summary(spans, ancestors=("microsim.integrate_reduced",))
    assert s.calls["cli.validate_config"] == 3
    assert s.busy["cli.validate_config"] == pytest.approx(6.0)
    assert s.self_s["cli.validate_config"] == pytest.approx(6.0)
    assert s.under[("models.V", "microsim.integrate_reduced")] == 1
    assert s.calls["models.V"] == 2


def test_wrapper_records_spans_and_counters_from_the_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    traced_inner = tr.wrap(inner, "models.U", counters=lambda st, a, k, r: {"elements": r})
    traced_outer = tr.wrap(lambda x: traced_inner(x) * 2, "microsim.micro_rhs")
    assert traced_outer(3) == 8
    spans = tr.take()
    assert [s[0] for s in spans] == ["microsim.micro_rhs", "models.U"]
    assert spans[1][1] == 0
    assert spans[1][4] == {"elements": 4}
    assert spans[1][COUNTER_S] > 0 and spans[0][END] > spans[1][END]
    assert tr.spans == []


def test_wrapper_pops_its_span_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "io.write_csv")()
    assert len(tr.take()) == 1


@pytest.fixture
def fake_package():
    def f():
        return "original"

    root = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    a.f = f
    b.f_alias = f
    root.f = f
    other = types.ModuleType("otherpkg")
    other.f = f
    mods = {"fakepkg": root, "fakepkg.a": a, "fakepkg.b": b, "otherpkg": other}
    sys.modules.update(mods)
    yield f, mods
    for name in mods:
        sys.modules.pop(name, None)


def test_patch_replaces_every_binding_in_the_package_and_restore_undoes_it(fake_package):
    f, mods = fake_package
    tr = Tracer()
    assert tr.patch(f, "fake.f", package="fakepkg") == 3
    for mod, attr in (("fakepkg", "f"), ("fakepkg.a", "f"), ("fakepkg.b", "f_alias")):
        assert getattr(mods[mod], attr) is not f
        assert getattr(mods[mod], attr)() == "original"
    assert mods["otherpkg"].f is f
    assert [s[0] for s in tr.take()] == ["fake.f", "fake.f", "fake.f"]
    tr.restore()
    for mod, attr in (("fakepkg", "f"), ("fakepkg.a", "f"), ("fakepkg.b", "f_alias")):
        assert getattr(mods[mod], attr) is f


def test_patch_of_an_unbound_function_is_an_error(fake_package):
    with pytest.raises(LookupError):
        Tracer().patch(lambda: None, "fake.g", package="fakepkg")


def test_install_and_restore_leave_coevnet_untouched():
    import coevnet.cli  # noqa: F401
    from layers import install

    def snapshot():
        return {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if name == "coevnet" or name.startswith("coevnet.")}

    before = snapshot()
    tr = Tracer()
    assert install(tr) == []
    during = snapshot()
    changed = [(m, a) for m in before for a in before[m] if during[m][a] is not before[m][a]]
    # integrate_closure is bound in closures, compare, cli and the package root
    assert {m for m, a in changed if a == "integrate_closure"} == {
        "coevnet", "coevnet.closures", "coevnet.compare", "coevnet.cli"}
    tr.restore()
    after = snapshot()
    assert all(after[m][a] is before[m][a] for m in before for a in before[m])
