"""Span recorder semantics: nesting, threads, clocks, the no-op path."""

import threading
import tracemalloc

import pytest

from repro.telemetry.clock import FakeClock
from repro.telemetry.spans import (
    NULL_RECORDER,
    TelemetryEvent,
    TraceRecorder,
    _NULL_SPAN,
)


class TestNesting:
    def test_implicit_parent_from_thread_stack(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("outer") as outer:
            with rec.span("inner"):
                pass
        spans = {s.name: s for s in rec.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == outer.span_id

    def test_siblings_share_parent(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("root") as root:
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
        spans = {s.name: s for s in rec.spans()}
        assert spans["a"].parent_id == root.span_id
        assert spans["b"].parent_id == root.span_id
        assert spans["a"].span_id != spans["b"].span_id

    def test_explicit_parent_overrides_stack(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("root") as root:
            pass
        with rec.span("other"):
            with rec.span("child", parent=root):
                pass
        child = next(s for s in rec.spans() if s.name == "child")
        assert child.parent_id == root.span_id

    def test_child_interval_within_parent(self):
        clk = FakeClock()
        rec = TraceRecorder(clock=clk)
        with rec.span("parent"):
            clk.advance(1.0)
            with rec.span("child"):
                clk.advance(2.0)
            clk.advance(1.0)
        spans = {s.name: s for s in rec.spans()}
        parent, child = spans["parent"], spans["child"]
        assert parent.start <= child.start
        assert child.end <= parent.end
        assert child.duration == pytest.approx(2.0)
        assert parent.duration == pytest.approx(4.0)


class TestSpanLifecycle:
    def test_attributes_sorted_and_queryable(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("task", index=3, kind="pemodel") as sp:
            sp.set(ok=True)
        (span,) = rec.spans()
        assert span.attr("index") == 3
        assert span.attr("kind") == "pemodel"
        assert span.attr("ok") is True
        assert span.attr("missing", 42) == 42
        assert span.attrs == tuple(sorted(span.attrs))

    def test_exception_marks_error_status(self):
        rec = TraceRecorder(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("kaput")
        (span,) = rec.spans()
        assert span.status == "error"
        assert span.attr("error") == "RuntimeError"

    def test_record_span_external_interval(self):
        rec = TraceRecorder(clock=FakeClock())
        span = rec.record_span("job", 10.0, 25.0, index=1)
        assert span.duration == 15.0
        assert rec.spans() == (span,)

    def test_record_span_rejects_negative_interval(self):
        rec = TraceRecorder(clock=FakeClock())
        with pytest.raises(ValueError, match="ends before"):
            rec.record_span("job", 5.0, 4.0)

    def test_spans_sorted_by_start(self):
        clk = FakeClock()
        rec = TraceRecorder(clock=clk)
        rec.record_span("late", 10.0, 11.0)
        rec.record_span("early", 1.0, 2.0)
        assert [s.name for s in rec.spans()] == ["early", "late"]

    def test_record_span_parent_is_a_span_or_its_id(self):
        rec = TraceRecorder(clock=FakeClock())
        parent = rec.record_span("request", 0.0, 4.0)
        by_span = rec.record_span("render", 1.0, 2.0, parent=parent)
        by_id = rec.record_span("write", 2.0, 3.0, parent=parent.span_id)
        assert by_span.parent_id == by_id.parent_id == parent.span_id

    def test_span_ids_unique_and_increasing(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("a") as a:
            pass
        b = rec.record_span("b", 0.0, 1.0)
        with rec.span("c") as c:
            pass
        assert a.span_id < b.span_id < c.span_id


class TestEvents:
    def test_event_stamped_with_clock_and_sorted_attrs(self):
        clk = FakeClock()
        rec = TraceRecorder(clock=clk)
        clk.advance(3.0)
        rec.event("publish", version=2, count=1)
        assert rec.events() == (
            TelemetryEvent(time=3.0, kind="publish", attrs=(("count", 1), ("version", 2))),
        )


class TestThreadSafety:
    def test_concurrent_spans_from_many_threads(self):
        clk = FakeClock()
        rec = TraceRecorder(clock=clk)
        n_threads, per_thread = 8, 50
        barrier = threading.Barrier(n_threads)

        with rec.span("root") as root:

            def worker(tid):
                barrier.wait()
                for i in range(per_thread):
                    with rec.span("work", parent=root, tid=tid, i=i):
                        pass

            threads = [
                threading.Thread(target=worker, args=(t,), name=f"w{t}")
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        work = [s for s in rec.spans() if s.name == "work"]
        assert len(work) == n_threads * per_thread
        # every span got a unique id and the explicit cross-thread parent
        assert len({s.span_id for s in work}) == len(work)
        assert all(s.parent_id == root.span_id for s in work)
        # thread names recorded per originating thread
        assert {s.thread for s in work} == {f"w{t}" for t in range(n_threads)}

    def test_thread_local_stacks_do_not_leak_nesting(self):
        """A span opened in one thread must not become another's parent."""
        rec = TraceRecorder(clock=FakeClock())
        done = threading.Event()

        def other():
            with rec.span("other_root"):
                pass
            done.set()

        with rec.span("main_root"):
            t = threading.Thread(target=other, name="other")
            t.start()
            t.join()
        assert done.is_set()
        other_root = next(s for s in rec.spans() if s.name == "other_root")
        assert other_root.parent_id is None


class TestNullRecorder:
    def test_disabled_and_stateless(self):
        assert NULL_RECORDER.enabled is False
        with NULL_RECORDER.span("x", index=1) as sp:
            sp.set(anything=True)
        NULL_RECORDER.record_span("x", 0.0, 1.0)
        NULL_RECORDER.event("kind", a=1)

    def test_span_handle_is_shared_singleton(self):
        assert NULL_RECORDER.span("a") is _NULL_SPAN
        assert NULL_RECORDER.span("b") is NULL_RECORDER.span("c")
        assert _NULL_SPAN.span_id is None

    def test_null_span_never_swallows_exceptions(self):
        with pytest.raises(KeyError):
            with NULL_RECORDER.span("x"):
                raise KeyError("boom")

    def test_no_op_span_allocates_nothing_on_hot_path(self):
        """The no-attrs fast path must not retain allocations."""
        # warm up (method caches, tracemalloc internals)
        for _ in range(100):
            with NULL_RECORDER.span("pemodel"):
                pass
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(1000):
                with NULL_RECORDER.span("pemodel"):
                    pass
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = after.filter_traces(
            (tracemalloc.Filter(True, "*telemetry/spans.py"),)
        ).compare_to(
            before.filter_traces(
                (tracemalloc.Filter(True, "*telemetry/spans.py"),)
            ),
            "lineno",
        )
        retained = sum(s.size_diff for s in stats)
        assert retained == 0, f"no-op span path retained {retained} bytes"


class TestFakeClock:
    def test_advance_and_call(self):
        clk = FakeClock()
        assert clk() == 0.0
        clk.advance(2.5)
        assert clk() == 2.5

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)
