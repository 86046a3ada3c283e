"""Self-time arithmetic, wrapping and coverage of the span recorder."""

import json

import pytest

from spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _synthetic(recorder, clock):
    """request[0,10] -> a[1,7] -> (b[2,4], b[4,5]);  request -> c[8,9.5]."""
    with recorder.root(7):
        clock.now = 1.0
        with recorder.span("a"):
            clock.now = 2.0
            with recorder.span("b"):
                clock.now = 4.0
            with recorder.span("b"):
                clock.now = 5.0
            clock.now = 7.0
        clock.now = 8.0
        with recorder.span("c"):
            clock.now = 9.5
        clock.now = 10.0


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    _synthetic(rec, clock)
    by = rec.by_name()
    assert by["request"] == {"calls": 1, "busy_s": 10.0, "self_s": 10.0 - 6.0 - 1.5}
    assert by["a"] == {"calls": 1, "busy_s": 6.0, "self_s": 3.0}
    assert by["b"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}
    assert by["c"] == {"calls": 1, "busy_s": 1.5, "self_s": 1.5}
    # self times of a single-thread tree add up to the root's wall clock
    assert sum(rec.self_times()) == pytest.approx(10.0)
    assert rec.coverage("request") == pytest.approx(7.5 / 10.0)
    assert {s.request for s in rec.spans} == {7}
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 1, 0]


def test_busy_time_does_not_double_count_recursion():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    with rec.span("f"):
        clock.now = 1.0
        with rec.span("f"):
            clock.now = 3.0
        clock.now = 4.0
    assert rec.by_name()["f"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}


def test_coverage_needs_a_root():
    with pytest.raises(ValueError):
        SpanRecorder().coverage("request")


class Layer:
    def forward(self, x):
        return self.helper(x) + 1

    def helper(self, x):
        return 2 * x


def test_wrap_instance_and_class_then_uninstall():
    rec = SpanRecorder()
    mine, other = Layer(), Layer()
    rec.wrap(mine, "forward", "layer.forward")  # instance: only this object
    rec.wrap(Layer, "helper", "layer.helper")  # class: every instance
    assert mine.forward(3) == 7
    assert other.forward(3) == 7
    names = [s.name for s in rec.spans]
    assert names == ["layer.forward", "layer.helper", "layer.helper"]
    assert rec.spans[1].parent == 0 and rec.spans[2].parent == -1
    rec.uninstall()
    assert "forward" not in vars(mine)
    assert Layer.helper.__name__ == "helper" and not hasattr(Layer.helper, "__wrapped__")
    mine.forward(1)
    assert len(rec.spans) == 3  # nothing records any more


def test_wrapper_closes_its_span_when_the_call_raises():
    class Boom:
        def go(self):
            raise KeyError("x")

    rec = SpanRecorder()
    boom = Boom()
    rec.wrap(boom, "go", "boom.go")
    with pytest.raises(KeyError):
        boom.go()
    with rec.span("after"):
        pass
    assert rec.spans[1].parent == -1  # the failed call did not stay on the stack


def test_wrap_public_methods_skips_private_and_properties():
    class Backend:
        name = "x"

        @property
        def scale(self):
            return 1.0

        def encrypt(self, v):
            return v

        def _hidden(self):
            return 0

        def concat_slots(self):
            return 0

    rec = SpanRecorder()
    wrapped = rec.wrap_public_methods(Backend(), "henn.backend", skip=("concat_slots",))
    assert wrapped == ["encrypt"]


def test_dump_layouts(tmp_path):
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    _synthetic(rec, clock)
    rec.dump(tmp_path / "t.json", meta={"workload": "w"})
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["columns"][0] == "name" and len(doc["spans"]) == 5
    rec.dump(tmp_path / "c.json", chrome=True)
    events = json.loads((tmp_path / "c.json").read_text())["traceEvents"]
    assert events[1] == {
        "name": "a", "ph": "X", "ts": 1e6, "dur": 6e6, "pid": 0,
        "tid": rec.spans[1].thread, "args": {"request": 7},
    }
