"""The layer tracer: self-time arithmetic, patching and the Chrome trace.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json
import sys
import types

import pytest

import layers


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock, keep_spans=True)
    outer = tracer.open("a", "outer")
    clock.now = 1.0
    inner = tracer.open("b", "inner")
    clock.now = 4.0
    tracer.close(inner)
    clock.now = 6.0
    tracer.close(outer)
    assert tracer.totals["a.self_s"] == 3.0     # 6 s open, 3 s in b
    assert tracer.totals["b.self_s"] == 3.0
    assert tracer.totals["a.calls"] == tracer.totals["b.calls"] == 1
    assert [span[1] for span in tracer.spans] == [outer[0], 0]


def test_self_time_of_recursive_spans_counts_each_second_once():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def recurse(depth):
        span = tracer.open("r", "recurse")
        clock.now += 1.0
        if depth:
            recurse(depth - 1)
        clock.now += 1.0
        tracer.close(span)

    recurse(3)                                  # 4 nested calls, 8 s
    assert tracer.totals["r.self_s"] == 8.0
    assert tracer.totals["r.calls"] == 4
    assert tracer.depth("r") == 0


def test_buckets_counts_and_experiment_attribution():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    tracer.experiment = "fig7"
    span = tracer.open("cache", "load", bucket="load_s", count="loads")
    clock.now = 2.0
    tracer.close(span)
    assert tracer.totals["cache.load_s"] == 2.0
    assert tracer.totals["cache.loads"] == 1
    assert tracer.totals["cache.fig7.self_s"] == 2.0


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines functions that ``fakepkg.b`` imports by name."""
    package = types.ModuleType("fakepkg")
    package.__path__ = []
    a = types.ModuleType("fakepkg.a")
    exec("def work(x):\n    return x + 1\n"
         "class Box:\n"
         "    def run(self, x):\n        return work(x)\n"
         "    @classmethod\n"
         "    def make(cls):\n        return cls()\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.work = a.work
    b.TABLE = {"job": a.work}
    modules = {"fakepkg": package, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    yield a, b
    for name in modules:
        sys.modules.pop(name, None)


def test_function_imported_by_name_is_timed_everywhere(fake_package):
    a, b = fake_package
    original = a.work
    tracer = layers.Tracer()
    uninstall = layers.install(
        tracer, {"L": (("fakepkg.a:work", None, None),)}, {},
        package="fakepkg")
    assert a.work is b.work is b.TABLE["job"] is not original
    assert a.work.__module__ == original.__module__ == "fakepkg.a"
    assert b.work(1) == 2 and b.TABLE["job"](2) == 3 and a.Box().run(3) == 4
    assert tracer.totals["L.calls"] == 3
    uninstall()
    assert a.work is b.work is b.TABLE["job"] is original


def test_methods_and_classmethods_are_patched_on_the_class(fake_package):
    a, _ = fake_package
    run, make = vars(a.Box)["run"], vars(a.Box)["make"]
    tracer = layers.Tracer()
    uninstall = layers.install(
        tracer, {"L": (("fakepkg.a:Box.run", None, None),
                       ("fakepkg.a:Box.make", None, "makes"))}, {},
        package="fakepkg")
    assert isinstance(vars(a.Box)["make"], classmethod)
    assert a.Box.make().run(1) == 2
    assert tracer.totals["L.calls"] == 2 and tracer.totals["L.makes"] == 1
    uninstall()
    assert vars(a.Box)["run"] is run and vars(a.Box)["make"] is make


def test_missing_boundary_is_reported_not_raised(fake_package):
    tracer = layers.Tracer()
    uninstall = layers.install(
        tracer, {"L": (("fakepkg.a:gone", None, None),
                       ("fakepkg.a:Box.gone", None, None),
                       ("fakepkg.nosuch:work", None, None),
                       ("fakepkg.a:work", None, None))}, {},
        package="fakepkg")
    assert tracer.missing == ["fakepkg.a:gone", "fakepkg.a:Box.gone",
                              "fakepkg.nosuch:work"]
    uninstall()


def test_every_repro_boundary_resolves():
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        assert tracer.missing == []
    finally:
        uninstall()


def test_layer_metrics_add_up_to_the_traced_wall():
    totals = {"hypervisor.self_s": 6.0, "analysis.self_s": 1.5,
              "hypervisor.events": 1000, "hypervisor.skipped_events": 250,
              "hypervisor.irqs": 10, "hypervisor.fig7.events": 100,
              "hypervisor.fig7.skipped_events": 50,
              "experiments.runner.busy_s": 3.0,
              "experiments.runner.capacity_s": 4.0}
    metrics = layers.layer_metrics(totals, {}, traced_wall=8.0,
                                   untraced_wall=7.5)
    assert set(metrics) == set(layers.layer_metric_units())
    self_total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert self_total + metrics["unattributed_s"] == pytest.approx(8.0)
    assert metrics["hypervisor.skip_share"] == 0.25
    assert metrics["hypervisor.fig7.skip_share"] == 0.5
    assert metrics["hypervisor.ns_per_event"] == pytest.approx(6e6)
    assert metrics["experiments.runner.worker_utilization"] == 0.75
    assert metrics["trace_overhead"] == pytest.approx(8.0 / 7.5 - 1)


def test_chrome_trace_has_a_track_per_layer_and_loads(tmp_path):
    from repro.telemetry import load_chrome_trace

    command = {"argv": ["all", "--smoke"], "launched": 10.0, "exited": 12.0,
               "spans": [[2, 1, "hypervisor", "Hypervisor.run_until", 10.6,
                          0.5, {"events": 7}],
                         [1, 0, "experiments.runner", "run_campaign", 10.5,
                          1.0, None],
                         [3, 1, "hypervisor", "Hypervisor.run_until", 11.2,
                          0.2, None]]}
    document = layers.chrome_trace([command], origin=10.0)
    path = tmp_path / "layers.json"
    path.write_text(json.dumps(document))
    events = load_chrome_trace(path)["traceEvents"]
    names = {event["args"]["name"] for event in events if event["ph"] == "M"
             and event["name"] == "thread_name"}
    assert set(layers.LAYERS) <= names
    spans = [event for event in events if event.get("cat") == "hypervisor"]
    assert [span["args"]["parent"] for span in spans] == [1, 1]
    assert spans[0]["args"]["events"] == 7
    assert spans[0]["ts"] == pytest.approx(600000.0)
