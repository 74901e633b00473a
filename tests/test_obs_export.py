"""Tests for the run-record exporters (repro.obs.export).

The format contracts are asserted through the same validators CI runs
on exported artifacts (``scripts/check_obs_exports.py``), so a test
failure here and a red observability-smoke job mean the same thing.
"""

import importlib.util
import json
from pathlib import Path

from repro import obs
from repro.obs import (
    RunRecorder,
    chrome_trace,
    load_run_record,
    prometheus_text,
    trial_columns,
)
from repro.obs.export import (
    EVENT_PID,
    SPAN_PID,
    write_chrome_trace,
    write_prometheus_text,
)


def _load_checkers():
    """Import scripts/check_obs_exports.py (scripts/ is not a package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "check_obs_exports.py"
    spec = importlib.util.spec_from_file_location("check_obs_exports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKERS = _load_checkers()


def _record():
    """A synthetic loaded run record with a known span/metric shape."""
    return {
        "meta": {"run_id": "run-a", "name": "exp", "elapsed_s": 2.0,
                 "version": "0.1.0", "status": "ok", "config": {}},
        "spans": {"root": {
            "name": "run", "count": 1, "total_s": 0.0, "children": [
                {"name": "runtime.campaign", "count": 1, "total_s": 1.0,
                 "attrs": {"jobs": 2}, "children": [
                     {"name": "arch.fi.chunk", "count": 4, "total_s": 1.5,
                      "attrs": {}, "children": []},
                     {"name": "runtime.cache.scan", "count": 1,
                      "total_s": 0.5, "attrs": {}, "children": []},
                 ]},
            ],
        }},
        "metrics": {
            "counters": {"runtime.cache.hits": 3,
                         "arch.fault_injection.trials": 64},
            "gauges": {"runtime.runner.jobs": 2},
            "histograms": {"runtime.unit.seconds": {
                "count": 4, "total": 2.0, "min": 0.1, "max": 1.0,
                "mean": 0.5, "p50": 0.4, "p95": 0.9, "p99": 1.0,
            }},
        },
        "campaigns": [],
        "outcomes": {"histogram": {"masked": 3, "sdc": 1}},
    }


class TestChromeTrace:
    def test_document_passes_the_ci_validator(self):
        document = chrome_trace(_record())
        assert CHECKERS.check_chrome_trace(document) == []
        assert document["otherData"]["run_id"] == "run-a"

    def test_parent_slice_widens_to_contain_children(self):
        # campaign total_s is 1.0 but its children sum to 2.0 (re-parented
        # parallel work); the timeline slice must still nest them.
        document = chrome_trace(_record())
        slices = {e["name"]: e for e in document["traceEvents"]
                  if e["ph"] == "X"}
        campaign = slices["runtime.campaign"]
        assert campaign["dur"] == 2.0 * 1e6
        assert campaign["args"]["total_s"] == 1.0  # honest number survives
        chunk = slices["arch.fi.chunk"]
        scan = slices["runtime.cache.scan"]
        assert chunk["ts"] == campaign["ts"]
        assert scan["ts"] == chunk["ts"] + chunk["dur"]  # back-to-back
        assert scan["ts"] + scan["dur"] <= campaign["ts"] + campaign["dur"]

    def test_span_slices_carry_count_and_attrs(self):
        document = chrome_trace(_record())
        (campaign,) = [e for e in document["traceEvents"]
                       if e.get("name") == "runtime.campaign"]
        assert campaign["pid"] == SPAN_PID
        assert campaign["args"]["count"] == 1
        assert campaign["args"]["jobs"] == 2

    def test_events_become_instants_with_relative_timestamps(self):
        events = [
            {"ev": "campaign.begin", "t": 100.0, "pid": 7, "trials": 64},
            {"ev": "fi.trials", "t": 100.5, "pid": 7,
             **trial_columns([(1, "pc", 0)], ["crash"])},
        ]
        document = chrome_trace(_record(), events=events)
        assert CHECKERS.check_chrome_trace(document) == []
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["campaign.begin", "fi.trials"]
        assert instants[0]["ts"] == 0.0
        assert instants[1]["ts"] == 0.5 * 1e6
        assert all(e["pid"] == EVENT_PID for e in instants)
        # Bulky payloads (fi.trials columns) stay out of args.
        assert instants[1]["args"] == {"pid": 7}
        assert instants[0]["args"]["trials"] == 64

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = write_chrome_trace(_record(), tmp_path / "trace.json")
        document = json.loads(Path(path).read_text())
        assert CHECKERS.check_chrome_trace(document) == []


class TestPrometheusText:
    def test_text_passes_the_ci_validator(self):
        assert CHECKERS.check_prometheus_text(prometheus_text(_record())) == []

    def test_counters_are_total_suffixed(self):
        text = prometheus_text(_record())
        assert "# TYPE repro_runtime_cache_hits_total counter" in text
        assert "repro_runtime_cache_hits_total 3" in text

    def test_histograms_are_summaries_with_quantiles(self):
        text = prometheus_text(_record())
        assert "# TYPE repro_runtime_unit_seconds summary" in text
        assert 'repro_runtime_unit_seconds{quantile="0.5"} 0.4' in text
        assert 'repro_runtime_unit_seconds{quantile="0.99"} 1.0' in text
        assert "repro_runtime_unit_seconds_sum 2.0" in text
        assert "repro_runtime_unit_seconds_count 4" in text

    def test_run_info_carries_identity_labels(self):
        text = prometheus_text(_record())
        assert 'run_id="run-a"' in text
        assert 'experiment="exp"' in text
        assert "repro_run_elapsed_seconds 2.0" in text

    def test_write_prometheus_text_and_cli_validator(self, tmp_path):
        trace = write_chrome_trace(_record(), tmp_path / "t.json")
        prom = write_prometheus_text(_record(), tmp_path / "m.prom")
        assert CHECKERS.main(["--trace", str(trace), "--prom", str(prom)]) == 0


class TestEndToEnd:
    def test_recorded_campaign_exports_validate(self, tmp_path):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        injector = FaultInjector(P.fibonacci(6))
        with RunRecorder(tmp_path, name="export-e2e") as recorder:
            injector.run_campaign(n_trials=16, seed=0)
        record = load_run_record(recorder.run_dir)
        events = obs.read_events(recorder.events_path)
        assert CHECKERS.check_chrome_trace(chrome_trace(record, events)) == []
        assert CHECKERS.check_prometheus_text(prometheus_text(record)) == []
