"""Spans, self time and wrapper restoration."""

import asyncio
import threading

import pytest

from .tracing import Ledger, Recorder, Span, covered, load_spans, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(name, start, end, parent=None):
    made = Span(name, start, parent, None)
    made.end = end
    return made


def test_self_time_subtracts_nested_children():
    root = span("root", 0.0, 10.0)
    child = span("child", 2.0, 6.0, root)
    grandchild = span("grandchild", 3.0, 4.0, child)
    own = self_times([root, child, grandchild])
    assert own[id(root)] == pytest.approx(6.0)
    assert own[id(child)] == pytest.approx(3.0)
    assert own[id(grandchild)] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(root.duration)


def test_self_time_with_overlapping_cross_thread_children():
    # Two shard threads work in parallel for a gather and one of them
    # finishes after the gather returned: the union, clipped, is covered.
    gather = span("gather", 0.0, 10.0)
    shard_a = span("shard", 1.0, 6.0, gather)
    shard_b = span("shard", 4.0, 12.0, gather)
    own = self_times([gather, shard_a, shard_b])
    assert own[id(gather)] == pytest.approx(1.0)
    assert covered([(1.0, 6.0), (4.0, 12.0)], 0.0, 10.0) == pytest.approx(9.0)
    assert covered([], 0.0, 10.0) == 0.0


class Engine:
    def evaluate(self, value):
        return [value] * 2


class Tracker:
    def __init__(self, clock):
        self.clock = clock

    def observe(self):
        self.clock.now += 2.0
        return 1


def test_wrappers_record_parents_and_are_restored():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    tracker = Tracker(clock)

    class Outer:
        def run(self):
            clock.now += 1.0
            tracker.observe()
            clock.now += 1.0
            return [1, 2, 3]

    outer = Outer()
    class_function = Engine.evaluate
    recorder.wrap(outer, "run", "outer.run", count=len)
    recorder.wrap(tracker, "observe", "tracker.observe")
    recorder.wrap(Engine, "evaluate", "engine.evaluate")

    assert outer.run() == [1, 2, 3]
    assert Engine().evaluate(5) == [5, 5]
    ledger = Ledger(recorder.spans)
    (run,) = ledger.named("outer.run")
    (observe,) = ledger.named("tracker.observe")
    assert observe.parent is run
    assert run.count == 3
    assert ledger.total("outer.run") == pytest.approx(4.0)
    assert ledger.self_total("outer.run") == pytest.approx(2.0)
    assert ledger.calls("engine.evaluate") == 1

    recorder.restore()
    assert "run" not in vars(outer)
    assert "observe" not in vars(tracker)
    assert Engine.evaluate is class_function
    recorder.restore()   # idempotent


def test_spans_on_other_threads_are_adopted_by_a_fanout_span():
    recorder = Recorder()
    started = threading.Event()
    release = threading.Event()

    class Worker:
        def evaluate(self):
            return 1

    class Backend:
        def gather(self):
            started.set()
            assert release.wait(5.0)

    worker, backend = Worker(), Backend()
    recorder.wrap(worker, "evaluate", "shard.evaluate")
    recorder.wrap(backend, "gather", "sharding.gather", fanout=True)

    def shard_thread():
        assert started.wait(5.0)
        worker.evaluate()
        release.set()

    thread = threading.Thread(target=shard_thread)
    thread.start()
    backend.gather()
    thread.join(5.0)
    assert not thread.is_alive()
    worker.evaluate()               # no gather open: nobody adopts it
    ledger = Ledger(recorder.spans)
    (gather,) = ledger.named("sharding.gather")
    adopted, orphan = sorted(ledger.named("shard.evaluate"),
                             key=lambda span: span.start)
    assert adopted.parent is gather and adopted.thread != gather.thread
    assert orphan.parent is None
    recorder.restore()


def test_async_wrappers_keep_interleaved_tasks_apart(tmp_path):
    recorder = Recorder()
    ids = iter(range(100))

    class Service:
        async def submit(self, delay):
            await asyncio.sleep(delay)
            self.touch()

        def touch(self):
            return None

    service = Service()
    recorder.wrap(service, "submit", "service.submit",
                  batch=lambda: next(ids))
    recorder.wrap(service, "touch", "service.touch")

    async def main():
        await asyncio.gather(service.submit(0.02), service.submit(0.001))

    asyncio.run(main())
    recorder.restore()
    ledger = Ledger(recorder.spans)
    for touch in ledger.named("service.touch"):
        assert touch.parent.name == "service.submit"
        assert touch.batch == touch.parent.batch
    assert {span.batch for span in ledger.named("service.submit")} == {0, 1}

    path = tmp_path / "trace.json"
    recorder.dump(path)
    loaded = Ledger(load_spans(path))
    assert loaded.calls("service.touch") == 2
    assert all(span.parent.name == "service.submit"
               for span in loaded.named("service.touch"))
    assert loaded.self_total("service.submit") == \
        pytest.approx(ledger.self_total("service.submit"))
