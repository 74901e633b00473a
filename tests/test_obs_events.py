"""Tests for the campaign flight recorder (repro.obs.events)."""

import json
import os
from collections import Counter

import pytest

from repro import obs
from repro.obs import (
    RunRecorder,
    load_run_record,
    read_events,
    trial_columns,
    trial_rows,
)
from repro.obs.events import (
    EVENTS_FILENAME,
    EVENTS_SCHEMA,
    MAX_BUFFERED_EVENTS,
    EventLog,
    iter_events,
)
from repro.runtime import CampaignRunner, FaultPolicy


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with collection off and state empty."""
    obs.disable()
    obs.reset()
    yield
    obs.EVENTS.unbind()
    obs.disable()
    obs.reset()


def _event_chunk(chunk):
    """Module-level worker emitting one event per chunk (picklable)."""
    obs.emit("test.chunk", trials=len(chunk))
    return [float(rng.random()) for rng in chunk.rngs()]


class TestEventLog:
    def test_disabled_emit_is_noop(self):
        log = EventLog()
        log.emit("unit.finish", unit=0)
        assert log.emitted == 0
        assert log.drain() == []

    def test_emit_carries_standard_fields(self):
        log = EventLog()
        log.enabled = True
        log.emit("unit.finish", unit=3, trials=8)
        (event,) = log.drain()
        assert event["ev"] == "unit.finish"
        assert event["pid"] == os.getpid()
        assert event["t"] > 0
        assert event["unit"] == 3 and event["trials"] == 8
        assert log.emitted == 1

    def test_sinkless_buffer_caps_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr("repro.obs.events.MAX_BUFFERED_EVENTS", 4)
        log = EventLog()
        log.enabled = True
        for i in range(7):
            log.emit("cache.miss", unit=i)
        assert len(log.drain()) == 4
        assert log.emitted == 7
        assert log.dropped == 3

    def test_default_cap_is_generous(self):
        assert MAX_BUFFERED_EVENTS >= 2 ** 16

    def test_bind_drains_buffer_and_writes_through(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        log = EventLog()
        log.enabled = True
        log.emit("campaign.begin", trials=10)
        log.bind(path)
        log.emit("campaign.end")
        log.flush()
        events = read_events(path)
        assert [e["ev"] for e in events] == ["campaign.begin", "campaign.end"]
        assert log.bound
        assert log.drain() == []  # everything went to the sink
        log.unbind()
        assert not log.bound

    def test_unbound_log_keeps_collecting(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        log = EventLog()
        log.enabled = True
        log.bind(path)
        log.emit("stream.open")
        log.unbind()
        log.emit("unit.finish", unit=0)
        assert [e["ev"] for e in log.drain()] == ["unit.finish"]
        assert [e["ev"] for e in read_events(path)] == ["stream.open"]

    def test_absorb_preserves_worker_time_and_pid(self):
        log = EventLog()
        log.enabled = True
        worker_event = {"ev": "test.chunk", "t": 123.5, "pid": 99999}
        log.absorb([worker_event])
        (event,) = log.drain()
        assert event["t"] == 123.5
        assert event["pid"] == 99999
        assert log.emitted == 1

    def test_reset_clears_counters_but_keeps_sink(self, tmp_path):
        log = EventLog()
        log.enabled = True
        log.bind(tmp_path / EVENTS_FILENAME)
        log.emit("stream.open")
        log.reset()
        assert log.emitted == 0
        assert log.bound


class TestTornTailReader:
    def test_iter_events_stops_at_torn_tail(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        lines = [
            json.dumps({"ev": "stream.open", "t": 1.0, "pid": 1}),
            json.dumps({"ev": "unit.finish", "t": 2.0, "pid": 1}),
        ]
        path.write_text("\n".join(lines) + '\n{"ev": "unit.fin')  # torn
        events = list(iter_events(path))
        assert [e["ev"] for e in events] == ["stream.open", "unit.finish"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        path.write_text('{"ev": "a"}\n\n{"ev": "b"}\n')
        assert [e["ev"] for e in iter_events(path)] == ["a", "b"]


class TestTrialRows:
    def test_flattens_frames_in_order(self):
        events = [
            {"ev": "fi.trials", **trial_columns(
                [(1, "reg3", 7), (2, "pc", 0)], ["masked", "crash"])},
            {"ev": "unit.finish", "unit": 0},
            {"ev": "fi.trials", **trial_columns([(3, "reg1", 2)], ["sdc"])},
        ]
        events = json.loads(json.dumps(events))  # as read back from disk
        assert trial_rows(events) == [
            (1, "reg3", 7, "masked"),
            (2, "pc", 0, "crash"),
            (3, "reg1", 2, "sdc"),
        ]

    def test_schema_1_item_rows_are_not_read(self):
        events = [{"ev": "fi.trials", "items": [[1, "reg3", 7, "masked"]]}]
        assert trial_rows(events) == []

    def test_columns_round_trip_any_cycle(self):
        # A cycle outside int32 keeps the cycle column a plain list.
        for cycles in ([0, -1, 2**31 - 1, -2**31], [2**31, 5], [-2**31 - 1]):
            coords = [(c, "ir", 31) for c in cycles]
            frame = json.loads(json.dumps(
                {"ev": "fi.trials",
                 **trial_columns(coords, ["hang"] * len(coords))}
            ))
            assert isinstance(frame["cycle"], str) == (
                -2**31 <= min(cycles) and max(cycles) < 2**31)
            assert trial_rows([frame]) == [c + ("hang",) for c in coords]


class TestCaptureAbsorbEvents:
    def test_capture_collects_and_absorb_replays(self):
        obs.enable()
        with obs.capture() as cap:
            obs.emit("test.inner", unit=1)
        assert obs.EVENTS.drain() == []  # nothing leaked into the parent
        obs.absorb(cap.snapshot)
        (event,) = obs.EVENTS.drain()
        assert event["ev"] == "test.inner"

    def test_capture_restores_parent_buffer(self):
        obs.enable()
        obs.emit("test.before")
        with obs.capture() as cap:
            obs.emit("test.during")
        events = obs.EVENTS.drain()
        assert [e["ev"] for e in events] == ["test.before"]
        assert [e["ev"] for e in cap.snapshot["events"]] == ["test.during"]
        # Restoring must not double-count the pre-capture event.
        assert obs.EVENTS.emitted == 2

    def test_nested_captures_partition_events(self):
        obs.enable()
        with obs.capture() as outer:
            obs.emit("test.outer.1")
            with obs.capture() as inner:
                obs.emit("test.inner")
            obs.absorb(inner.snapshot)
            obs.emit("test.outer.2")
        assert [e["ev"] for e in outer.snapshot["events"]] == [
            "test.outer.1", "test.inner", "test.outer.2"
        ]
        assert obs.EVENTS.drain() == []

    def test_pool_workers_events_reach_parent_stream(self):
        obs.enable()
        CampaignRunner(jobs=2, chunk_size=8).run_trials(_event_chunk, 32, seed=3)
        events = obs.EVENTS.drain()
        chunk_events = [e for e in events if e["ev"] == "test.chunk"]
        assert len(chunk_events) == 4  # 32 trials / chunk_size 8
        assert sum(e["trials"] for e in chunk_events) == 32
        assert {e["ev"] for e in events} >= {
            "campaign.begin", "campaign.end", "unit.submit", "unit.finish",
            "worker.spawn", "worker.heartbeat",
        }


class TestRunnerEvents:
    def test_serial_campaign_event_sequence(self):
        obs.enable()
        CampaignRunner(jobs=1, chunk_size=8).run_trials(_event_chunk, 16, seed=0)
        events = obs.EVENTS.drain()
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "campaign.begin"
        assert kinds[-1] == "campaign.end"
        assert kinds.count("unit.submit") == 2
        assert kinds.count("unit.finish") == 2
        end = events[-1]
        assert end["executed_trials"] == 16
        assert end["retries"] == 0

    def test_cache_hits_and_misses_are_events(self, tmp_path):
        from repro.runtime import ResultCache

        obs.enable()
        cache = ResultCache(tmp_path)
        CampaignRunner(chunk_size=8, cache=cache).run_trials(
            _event_chunk, 16, seed=0, key=("ev",)
        )
        first = Counter(e["ev"] for e in obs.EVENTS.drain())
        assert first["cache.miss"] == 2
        assert first["cache.hit"] == 0
        CampaignRunner(chunk_size=8, cache=cache).run_trials(
            _event_chunk, 16, seed=0, key=("ev",)
        )
        second = Counter(e["ev"] for e in obs.EVENTS.drain())
        assert second["cache.hit"] == 2
        assert second["cache.miss"] == 0

    def test_retry_events_carry_attempt_and_error(self):
        attempts = {"n": 0}

        def flaky(item):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise ValueError("transient")
            return item

        obs.enable()
        runner = CampaignRunner(
            jobs=1, policy=FaultPolicy(max_retries=2, backoff_base_s=0.0)
        )
        runner.map(flaky, [1, 2])
        retries = [e for e in obs.EVENTS.drain() if e["ev"] == "unit.retry"]
        (retry,) = retries
        assert retry["unit"] == 0
        assert retry["attempt"] == 1
        assert retry["error"] == "ValueError"


class TestRecorderEventStream:
    def test_recorder_writes_events_jsonl(self, tmp_path):
        with RunRecorder(tmp_path, name="ev", config={}) as recorder:
            obs.emit("test.custom", value=1)
        events = read_events(recorder.events_path)
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "stream.open"
        assert kinds[-1] == "stream.close"
        assert "test.custom" in kinds
        (open_event,) = [e for e in events if e["ev"] == "stream.open"]
        assert open_event["schema"] == EVENTS_SCHEMA
        assert open_event["run_id"] == recorder.run_id
        record = load_run_record(recorder.run_dir)
        assert record["meta"]["events_file"] == EVENTS_FILENAME
        assert record["meta"]["events_emitted"] == len(events)
        assert record["meta"]["events_dropped"] == 0

    def test_stream_close_carries_error_status(self, tmp_path):
        with pytest.raises(RuntimeError):
            with RunRecorder(tmp_path, name="boom") as recorder:
                raise RuntimeError("nope")
        (close,) = [e for e in read_events(recorder.events_path)
                    if e["ev"] == "stream.close"]
        assert close["status"] == "error: RuntimeError"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fi_campaign_rows_reconcile_with_histogram(self, tmp_path, jobs):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        injector = FaultInjector(P.fibonacci(6))
        with RunRecorder(tmp_path, name="fi") as recorder:
            injector.run_campaign(n_trials=48, seed=0, jobs=jobs, chunk_size=16)
        record = load_run_record(recorder.run_dir)
        events = read_events(recorder.events_path)
        rows = trial_rows(events)
        assert len(rows) == 48
        histogram = record["outcomes"]["histogram"]
        assert Counter(r[3] for r in rows) == Counter(histogram)
        goldens = [e for e in events if e["ev"] == "fi.golden"]
        # The injector was built before recording started, so only the
        # trial frames are present; coordinates must be complete tuples.
        assert all(len(r) == 4 for r in rows)
        assert goldens == []

    def test_fi_ladder_event_when_built_under_recording(self, tmp_path):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        with RunRecorder(tmp_path, name="fi") as recorder:
            injector = FaultInjector(P.fibonacci(6))
        (golden,) = [e for e in read_events(recorder.events_path)
                     if e["ev"] == "fi.golden"]
        assert golden["engine"] == injector.engine
        assert golden["program"] == injector.program.name
        assert golden["golden_cycles"] == injector.golden_cycles

    def test_engine_rows_are_identical_across_engines(self, tmp_path):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        rows_by_engine = {}
        for engine in ("batched", "reference"):
            injector = FaultInjector(P.fibonacci(6), engine=engine)
            with RunRecorder(tmp_path / engine, name="fi") as recorder:
                injector.run_campaign(n_trials=32, seed=1)
            rows_by_engine[engine] = trial_rows(
                read_events(recorder.events_path)
            )
        assert rows_by_engine["batched"] == rows_by_engine["reference"]
        assert len(rows_by_engine["batched"]) == 32
