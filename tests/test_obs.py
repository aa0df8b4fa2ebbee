"""Tests for the ``repro.obs`` telemetry subsystem.

Covers the recorder protocol (no-op and in-memory), the adaptation-point
timeline, the exporters (Chrome trace round-trip in particular), the
instrumented library paths, the no-op overhead bound the design promises,
and the bench harness.
"""

import json
import time

import pytest

from repro.obs import (
    ADAPTATION_SPAN,
    NULL_RECORDER,
    InMemoryRecorder,
    NullRecorder,
    Recorder,
    Timeline,
    chrome_trace,
    format_report,
    get_recorder,
    metrics_snapshot,
    per_step_phase_times,
    percentile,
    phase_totals,
    set_recorder,
    spans_with_tag,
    summarise,
    use_recorder,
    write_chrome_trace,
)


class TestNullRecorder:
    def test_disabled_and_shared_span(self):
        rec = NullRecorder()
        assert rec.enabled is False
        assert rec.span("a") is rec.span("b", nest=1)

    def test_span_and_bind_are_contexts(self):
        rec = NullRecorder()
        with rec.bind(step=1):
            with rec.span("x") as span:
                assert span.tag(extra=2) is span
        rec.count("events")
        rec.gauge("level", 3.0)

    def test_satisfies_protocol(self):
        assert isinstance(NULL_RECORDER, Recorder)
        assert isinstance(InMemoryRecorder(), Recorder)

    def test_default_active_recorder_is_null(self):
        assert get_recorder() is NULL_RECORDER


class TestInMemoryRecorder:
    def test_records_span_with_duration(self):
        rec = InMemoryRecorder()
        with rec.span("phase"):
            pass
        (span,) = rec.spans
        assert span.name == "phase"
        assert span.end >= span.start >= 0.0
        assert span.duration == span.end - span.start

    def test_nesting_depth(self):
        rec = InMemoryRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        by_name = {s.name: s for s in rec.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # inner closes (and is recorded) first
        assert [s.name for s in rec.spans] == ["inner", "outer"]

    def test_tags_and_live_tagging(self):
        rec = InMemoryRecorder()
        with rec.span("p", nest=3) as span:
            span.tag(moved=12)
        assert rec.spans[0].tags == {"nest": 3, "moved": 12}

    def test_bind_merges_ambient_tags(self):
        rec = InMemoryRecorder()
        with rec.bind(step=4, strategy="diffusion"):
            with rec.span("p", nest=1):
                pass
        with rec.span("q"):
            pass
        assert rec.spans[0].tags == {"step": 4, "strategy": "diffusion", "nest": 1}
        assert rec.spans[1].tags == {}

    def test_explicit_tag_beats_ambient(self):
        rec = InMemoryRecorder()
        with rec.bind(step=1):
            with rec.span("p", step=9):
                pass
        assert rec.spans[0].tags["step"] == 9

    def test_counters_accumulate_gauges_overwrite(self):
        rec = InMemoryRecorder()
        rec.count("miss")
        rec.count("miss", 2.0)
        rec.gauge("nests", 3)
        rec.gauge("nests", 5)
        assert rec.counters == {"miss": 3.0}
        assert rec.gauges == {"nests": 5}

    def test_out_of_order_close_raises(self):
        rec = InMemoryRecorder()
        outer = rec.span("outer")
        inner = rec.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_reset_with_open_span_raises(self):
        rec = InMemoryRecorder()
        with rec.span("open"):
            with pytest.raises(RuntimeError, match="open spans"):
                rec.reset()

    def test_reset_clears_everything(self):
        rec = InMemoryRecorder()
        with rec.span("p"):
            pass
        rec.count("c")
        rec.gauge("g", 1)
        rec.reset()
        assert rec.spans == [] and rec.counters == {} and rec.gauges == {}

    def test_durations_by_name(self):
        rec = InMemoryRecorder()
        for _ in range(3):
            with rec.span("p"):
                pass
        with rec.span("q"):
            pass
        assert len(rec.durations("p")) == 3
        assert rec.durations("absent") == []


class TestActiveRecorder:
    def test_use_recorder_restores_previous(self):
        rec = InMemoryRecorder()
        before = get_recorder()
        with use_recorder(rec) as active:
            assert active is rec
            assert get_recorder() is rec
        assert get_recorder() is before

    def test_use_recorder_restores_on_error(self):
        rec = InMemoryRecorder()
        before = get_recorder()
        with pytest.raises(RuntimeError):
            with use_recorder(rec):
                raise RuntimeError("boom")
        assert get_recorder() is before

    def test_set_recorder_returns_previous(self):
        rec = InMemoryRecorder()
        previous = set_recorder(rec)
        try:
            assert get_recorder() is rec
        finally:
            set_recorder(previous)


class TestStats:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarise(self):
        st = summarise([0.1, 0.3, 0.2])
        assert st.count == 3
        assert st.total == pytest.approx(0.6)
        assert st.median == pytest.approx(0.2)
        assert st.min == pytest.approx(0.1) and st.max == pytest.approx(0.3)
        d = st.to_dict()
        assert set(d) == {
            "count", "total_s", "mean_s", "median_s", "p95_s", "min_s", "max_s"
        }


class TestTimeline:
    def _record_two_steps(self):
        rec = InMemoryRecorder()
        timeline = Timeline(rec)
        for step in range(2):
            with timeline.adaptation_point(step=step, strategy="diffusion"):
                with rec.span("tree.edit"):
                    pass
                with rec.span("netsim"):
                    pass
        return rec

    def test_umbrella_span_and_tags(self):
        rec = self._record_two_steps()
        umbrellas = [s for s in rec.spans if s.name == ADAPTATION_SPAN]
        assert len(umbrellas) == 2
        assert {s.tags["step"] for s in umbrellas} == {0, 1}
        assert all(s.tags["strategy"] == "diffusion" for s in umbrellas)

    def test_nested_spans_inherit_step(self):
        rec = self._record_two_steps()
        edits = [s for s in rec.spans if s.name == "tree.edit"]
        assert [s.tags["step"] for s in edits] == [0, 1]

    def test_per_step_phase_times(self):
        rec = self._record_two_steps()
        table = per_step_phase_times(rec)
        assert set(table) == {0, 1}
        assert {"tree.edit", "netsim", ADAPTATION_SPAN} <= set(table[0])
        # the umbrella covers its phases
        assert table[0][ADAPTATION_SPAN] >= table[0]["tree.edit"]

    def test_phase_totals_and_tag_query(self):
        rec = self._record_two_steps()
        totals = phase_totals(rec)
        assert totals[ADAPTATION_SPAN] == pytest.approx(
            sum(s.duration for s in rec.spans if s.name == ADAPTATION_SPAN)
        )
        assert len(spans_with_tag(rec, "step")) == len(rec.spans)
        assert spans_with_tag(rec, "no_such_tag") == []


def _balanced(events):
    """Simulate a trace viewer: every E must close the innermost open B."""
    stack = []
    for ev in events:
        if ev["ph"] == "B":
            stack.append(ev["name"])
        elif ev["ph"] == "E":
            if not stack or stack[-1] != ev["name"]:
                return False
            stack.pop()
    return not stack


class TestChromeTrace:
    def _recorded(self):
        rec = InMemoryRecorder()
        timeline = Timeline(rec)
        with timeline.adaptation_point(step=0, strategy="scratch", n_nests=2):
            with rec.span("tree.huffman", n_nests=2):
                pass
            with rec.span("tree.layout"):
                pass
        return rec

    def test_round_trips_as_json(self):
        doc = json.loads(json.dumps(chrome_trace(self._recorded())))
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_timestamps_monotonic(self):
        events = chrome_trace(self._recorded())["traceEvents"]
        ts = [e["ts"] for e in events if e["ph"] in ("B", "E")]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_balanced_and_nested(self):
        events = chrome_trace(self._recorded())["traceEvents"]
        assert _balanced([e for e in events if e["ph"] in ("B", "E")])

    def test_balanced_with_zero_duration_spans(self):
        rec = InMemoryRecorder()
        with rec.span("outer"):
            for _ in range(5):
                with rec.span("inner"):
                    pass
        events = chrome_trace(rec)["traceEvents"]
        assert _balanced([e for e in events if e["ph"] in ("B", "E")])

    def test_metadata_and_tags(self):
        events = chrome_trace(self._recorded(), process_name="bench")["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "bench"
        huffman_b = next(
            e for e in events if e["ph"] == "B" and e["name"] == "tree.huffman"
        )
        assert huffman_b["args"]["step"] == 0
        assert huffman_b["args"]["n_nests"] == 2

    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(self._recorded(), tmp_path / "trace.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["traceEvents"]


class TestMetricsSnapshotAndReport:
    def _recorded(self):
        rec = InMemoryRecorder()
        with rec.span("p"):
            pass
        rec.count("miss", 2)
        rec.gauge("nests", 4)
        return rec

    def test_snapshot_shape(self):
        snap = self._recorded()
        payload = json.loads(json.dumps(metrics_snapshot(snap)))
        assert payload["schema"] == 1
        assert payload["spans"]["p"]["count"] == 1
        assert payload["counters"] == {"miss": 2}
        assert payload["gauges"] == {"nests": 4}

    def test_report_mentions_everything(self):
        text = format_report(self._recorded(), title="demo")
        assert "demo" in text and "p" in text
        assert "miss" in text and "nests" in text


class TestInstrumentedRun:
    """The library's hot paths actually hit the recorder end to end."""

    def _run(self):
        from repro.core import DiffusionStrategy
        from repro.experiments import synthetic_workload
        from repro.experiments.runner import ExperimentContext, run_workload
        from repro.topology import MACHINES

        rec = InMemoryRecorder()
        ctx = ExperimentContext(MACHINES["bgl-256"], recorder=rec)
        wl = synthetic_workload(seed=0, n_steps=6)
        run = run_workload(wl, DiffusionStrategy(), ctx)
        return rec, wl, run

    def test_every_step_has_an_adaptation_span(self):
        rec, wl, _ = self._run()
        umbrellas = [s for s in rec.spans if s.name == ADAPTATION_SPAN]
        assert len(umbrellas) == wl.n_steps
        assert [s.tags["step"] for s in umbrellas] == list(range(wl.n_steps))
        assert all(s.tags["strategy"] == "diffusion" for s in umbrellas)

    def test_phases_observed_inside_steps(self):
        rec, wl, _ = self._run()
        table = per_step_phase_times(rec)
        assert set(table) == set(range(wl.n_steps))
        observed = set(phase_totals(rec))
        assert "realloc.step" in observed
        assert "tree.layout" in observed
        assert "netsim.bottleneck" in observed

    def test_phase_times_fit_inside_umbrella(self):
        rec, _, _ = self._run()
        for step, phases in per_step_phase_times(rec).items():
            assert phases["realloc.step"] <= phases[ADAPTATION_SPAN] + 1e-9

    def test_trace_of_real_run_is_balanced(self):
        rec, _, _ = self._run()
        events = chrome_trace(rec)["traceEvents"]
        assert _balanced([e for e in events if e["ph"] in ("B", "E")])


class TestNoOpOverhead:
    """The design promise: permanently-instrumented paths cost ~nothing
    when telemetry is off."""

    N = 20_000

    def _timed(self, fn):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def test_disabled_span_per_call_bound(self):
        assert get_recorder() is NULL_RECORDER  # telemetry off

        def instrumented():
            total = 0
            for i in range(self.N):
                with get_recorder().span("hot", i=i):
                    total += i
            return total

        per_call = self._timed(instrumented) / self.N
        # a real span costs ~µs; the no-op must stay far under that even
        # on a loaded CI machine
        assert per_call < 20e-6, f"no-op span cost {per_call * 1e6:.2f}µs/call"

    def test_null_recorder_allocates_nothing_per_span(self):
        rec = NullRecorder()
        spans = {id(rec.span("a", x=1)) for _ in range(100)}
        contexts = {id(rec.bind(step=1)) for _ in range(100)}
        assert len(spans) == 1 and len(contexts) == 1


class TestBench:
    def test_quick_subset_runs_and_serialises(self, tmp_path):
        from repro.obs.bench import format_bench, run_bench, write_baseline

        result = run_bench(
            quick=True, repeats=2, phases=["tree.scratch", "tree.diffusion"]
        )
        assert result.quick and result.repeats == 2
        assert set(result.phases) == {"tree.scratch", "tree.diffusion"}
        for stats in result.phases.values():
            assert stats.count == 2
            assert stats.median >= 0.0

        path = write_baseline(result, tmp_path / "bench.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == 2
        assert payload["suite"] == "repro-bench"
        assert payload["machine"] == "bgl-256"
        assert isinstance(payload["git_describe"], str) and payload["git_describe"]
        for stats in payload["phases"].values():
            assert stats["median_s"] >= 0.0 and stats["p95_s"] >= stats["median_s"]

        text = format_bench(result)
        assert "tree.scratch" in text and "median" in text

    def test_unknown_phase_rejected(self):
        from repro.obs.bench import run_bench

        with pytest.raises(ValueError, match="unknown bench phase"):
            run_bench(quick=True, phases=["nope"])

    def test_bad_repeats_rejected(self):
        from repro.obs.bench import run_bench

        with pytest.raises(ValueError, match="repeats"):
            run_bench(quick=True, repeats=0)

    def test_catalogue_covers_required_phases(self):
        from repro.obs.bench import bench_phases

        required = {
            "analysis.pda",
            "tree.scratch",
            "tree.diffusion",
            "grid.transfer_matrix",
            "netsim.bottleneck",
            "netsim.flow",
            "dataplane.roundtrip",
            "e2e.compare",
        }
        assert required <= {p.name for p in bench_phases()}

    def test_scale_suite_catalogue(self):
        from repro.obs.bench import scale_phases

        quick = {p.name for p in scale_phases(quick=True)}
        full = {p.name for p in scale_phases(quick=False)}
        # the quick ladder stops at 4k ranks; the full one climbs to 64k
        assert {"scale.ranks_1k", "scale.ranks_4k"} <= quick
        assert "scale.ranks_64k" not in quick
        assert {
            "scale.ranks_1k",
            "scale.ranks_4k",
            "scale.ranks_16k",
            "scale.ranks_64k",
            "scale.nests_8",
            "scale.nests_32",
            "scale.ledger_pairs",
        } <= full

    def test_scale_suite_runs_and_tags_machine(self, tmp_path):
        from repro.obs.bench import run_bench, write_baseline

        result = run_bench(
            quick=True, repeats=1, suite="scale", phases=["scale.ledger_pairs"]
        )
        assert set(result.phases) == {"scale.ledger_pairs"}
        # scale results are tagged so compare never mixes them with the
        # default single-machine suite
        payload = json.loads(
            write_baseline(result, tmp_path / "scale.json").read_text(
                encoding="utf-8"
            )
        )
        assert payload["machine"] == "scale"

    def test_suite_validation(self):
        from repro.obs.bench import run_bench

        with pytest.raises(ValueError, match="suite"):
            run_bench(quick=True, suite="nope")


class TestExporterEdgeCases:
    """Exporters must not choke on empty, unclosed or span-free recorders."""

    def test_empty_recorder_everywhere(self):
        rec = InMemoryRecorder()
        doc = chrome_trace(rec)
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]  # metadata only
        snap = metrics_snapshot(rec)
        assert snap["spans"] == {} and snap["counters"] == {} and snap["gauges"] == {}
        text = format_report(rec, title="empty")
        assert "empty" in text and "phase" in text

    def test_open_span_is_invisible_until_closed(self):
        rec = InMemoryRecorder()
        handle = rec.span("never.closed")
        handle.__enter__()
        # the recorder only exports *completed* spans; an open one must
        # neither appear nor crash the exporters
        assert rec.spans == []
        events = chrome_trace(rec)["traceEvents"]
        assert all(e["name"] != "never.closed" for e in events)
        assert "never.closed" not in format_report(rec)
        assert metrics_snapshot(rec)["spans"] == {}
        handle.__exit__(None, None, None)
        assert "never.closed" in metrics_snapshot(rec)["spans"]

    def test_counters_and_gauges_only(self):
        rec = InMemoryRecorder()
        rec.count("example.counter", 3)
        rec.gauge("nests.live", 7)
        doc = json.loads(json.dumps(chrome_trace(rec)))
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        snap = metrics_snapshot(rec)
        assert snap["spans"] == {}
        assert snap["counters"] == {"example.counter": 3}
        assert snap["gauges"] == {"nests.live": 7}
        text = format_report(rec)
        assert "example.counter" in text and "nests.live" in text

    def test_write_chrome_trace_empty(self, tmp_path):
        path = write_chrome_trace(InMemoryRecorder(), tmp_path / "empty.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["traceEvents"][0]["ph"] == "M"


class TestHtmlReport:
    def test_sections_escaped_and_wrapped(self):
        from repro.obs import html_report

        page = html_report(
            [("phases <1>", "a | b\n--+--"), ("audit & trail", "x < y")],
            title="repro obs <report>",
        )
        assert page.startswith("<!DOCTYPE html>")
        assert "<title>repro obs &lt;report&gt;</title>" in page
        assert "<h2>phases &lt;1&gt;</h2>" in page
        assert "<h2>audit &amp; trail</h2>" in page
        assert "x &lt; y" in page
        assert "<1>" not in page  # raw unescaped text must not leak

    def test_empty_sections(self):
        from repro.obs import html_report

        page = html_report([])
        assert "<h1>repro obs report</h1>" in page
        assert page.endswith("</body></html>\n")
