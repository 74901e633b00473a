"""Tests for the cross-layer observability subsystem (repro.obs)."""

import json
import re
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.obs import (
    HistogramStat,
    RunRecorder,
    config_digest,
    layer_breakdown,
    layer_of,
    load_run_record,
    render_report,
    span_shape,
)
from repro.runtime import CampaignRunner, ProgressEvent, ProgressLog, ResultCache
from repro.runtime.telemetry import print_progress


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with collection off and state empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _span_chunk(chunk):
    """Module-level worker that opens spans (picklable for the workers)."""
    with obs.span("test.worker.chunk", trials=len(chunk)):
        results = []
        for rng in chunk.rngs():
            with obs.span("test.worker.trial"):
                obs.inc("test.worker.draws")
                obs.observe("test.worker.value", rng.random())
                results.append(float(rng.random()))
    return results


class TestSpans:
    def test_spans_nest_and_aggregate(self):
        obs.enable()
        with obs.span("arch.fault_injection.campaign", program="p"):
            for _ in range(3):
                with obs.span("circuit.sta.run"):
                    pass
        tree = obs.span_tree()
        campaign = tree["children"][0]
        assert campaign["name"] == "arch.fault_injection.campaign"
        assert campaign["count"] == 1
        assert campaign["attrs"] == {"program": "p"}
        (sta,) = campaign["children"]
        assert sta["name"] == "circuit.sta.run"
        assert sta["count"] == 3
        assert sta["total_s"] >= 0.0

    def test_disabled_spans_record_nothing(self):
        with obs.span("circuit.sta.run"):
            obs.inc("circuit.sta.runs")
        assert obs.span_tree()["children"] == []
        assert obs.metrics_snapshot()["counters"] == {}

    def test_disabled_span_is_shared_noop(self):
        # The no-op path must not allocate per call site.
        assert obs.span("a.b") is obs.span("c.d")

    def test_span_survives_exceptions(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("core.framework.episode"):
                raise RuntimeError("boom")
        (node,) = obs.span_tree()["children"]
        assert node["count"] == 1

    def test_collecting_context_restores_state(self):
        with obs.collecting():
            assert obs.enabled()
        assert not obs.enabled()

    def test_shape_ignores_times(self):
        obs.enable()
        with obs.span("a.x"):
            with obs.span("b.y"):
                pass
        shape = span_shape(obs.span_tree())
        assert shape == {
            "name": "run",
            "count": 0,
            "children": [
                {
                    "name": "a.x",
                    "count": 1,
                    "children": [{"name": "b.y", "count": 1, "children": []}],
                }
            ],
        }


class TestMetrics:
    def test_counters_gauges_histograms(self):
        obs.enable()
        obs.inc("runtime.cache.hits")
        obs.inc("runtime.cache.hits", 4)
        obs.set_gauge("system.platform.cores", 4)
        for v in (1.0, 3.0, 2.0):
            obs.observe("circuit.sta.slack_ps", v)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["runtime.cache.hits"] == 5
        assert snap["gauges"]["system.platform.cores"] == 4
        hist = snap["histograms"]["circuit.sta.slack_ps"]
        assert hist["count"] == 3
        assert hist["min"] == 1.0 and hist["max"] == 3.0
        assert hist["mean"] == pytest.approx(2.0)

    def test_histogram_merge(self):
        a, b = HistogramStat(), HistogramStat()
        a.observe(1.0)
        b.observe(5.0)
        b.observe(3.0)
        a.absorb(b.to_dict())
        assert a.count == 3
        assert a.min == 1.0 and a.max == 5.0

    def test_layer_of(self):
        assert layer_of("circuit.sta.runs") == "circuit"
        assert layer_of("runtime.cache.hits") == "runtime"


class TestWorkerPropagation:
    def test_capture_and_absorb_reparent_spans(self):
        obs.enable()
        with obs.capture() as cap:
            with obs.span("arch.cpu.run"):
                obs.inc("arch.cpu.steps", 7)
        # Nothing leaked into the parent tree while capturing...
        assert obs.span_tree()["children"] == []
        # ...and absorbing grafts under the currently active span.
        with obs.span("runtime.campaign"):
            obs.absorb(cap.snapshot)
        tree = obs.span_tree()
        (campaign,) = tree["children"]
        assert [c["name"] for c in campaign["children"]] == ["arch.cpu.run"]
        assert obs.metrics_snapshot()["counters"]["arch.cpu.steps"] == 7

    def test_absorb_none_is_noop(self):
        obs.enable()
        obs.absorb(None)
        assert obs.span_tree()["children"] == []

    def test_pool_and_serial_runs_have_identical_span_tree_shape(self):
        obs.enable()
        serial_results = CampaignRunner(jobs=1, chunk_size=8).run_trials(
            _span_chunk, 32, seed=9
        )
        serial_shape = span_shape(obs.span_tree())
        serial_counters = dict(obs.metrics_snapshot()["counters"])
        obs.reset()
        parallel_results = CampaignRunner(jobs=3, chunk_size=8).run_trials(
            _span_chunk, 32, seed=9
        )
        parallel_shape = span_shape(obs.span_tree())
        parallel_counters = dict(obs.metrics_snapshot()["counters"])
        assert serial_results == parallel_results
        assert serial_shape == parallel_shape
        assert serial_counters["test.worker.draws"] == 32
        assert parallel_counters == serial_counters

    def test_worker_spans_appear_under_runtime_campaign(self):
        obs.enable()
        CampaignRunner(jobs=2, chunk_size=8).run_trials(_span_chunk, 32, seed=1)
        (campaign,) = obs.span_tree()["children"]
        assert campaign["name"] == "runtime.campaign"
        (chunk,) = campaign["children"]
        assert chunk["name"] == "test.worker.chunk"
        assert chunk["count"] == 4  # 32 trials / chunk_size 8
        (trial,) = chunk["children"]
        assert trial["count"] == 32
        hist = obs.metrics_snapshot()["histograms"]["test.worker.value"]
        assert hist["count"] == 32

    def test_runner_notes_campaign_accounting(self, tmp_path):
        obs.enable()
        cache = ResultCache(tmp_path)
        runner = CampaignRunner(jobs=1, chunk_size=8, cache=cache)
        runner.run_trials(_span_chunk, 16, seed=0, key=("note",))
        runner2 = CampaignRunner(jobs=1, chunk_size=8, cache=cache)
        runner2.run_trials(_span_chunk, 16, seed=0, key=("note",))
        notes = obs.campaign_notes()
        assert len(notes) == 2
        assert notes[0]["executed_trials"] == 16
        assert notes[0]["cache_misses"] == 2
        assert notes[1]["cached_trials"] == 16
        assert notes[1]["cache_hits"] == 2
        counters = obs.metrics_snapshot()["counters"]
        assert counters["runtime.cache.hits"] == 2
        assert counters["runtime.cache.writes"] == 2


class TestFaultInjectionSpans:
    def test_campaign_records_three_instrumented_levels(self):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        injector = FaultInjector(P.fibonacci(6))
        obs.enable()
        obs.reset()
        with obs.span("cli.fi"):
            injector.run_campaign(n_trials=32, seed=0, jobs=2)
        tree = obs.span_tree()
        layers = set()

        def walk(node):
            if node["name"] != "run":
                layers.add(layer_of(node["name"]))
            for child in node.get("children", ()):
                walk(child)

        walk(tree)
        assert {"cli", "arch", "runtime"} <= layers
        counters = obs.metrics_snapshot()["counters"]
        assert counters["arch.fault_injection.trials"] == 32

    def test_serial_and_parallel_campaign_trees_match(self):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        injector = FaultInjector(P.fibonacci(6))
        obs.enable()
        injector.run_campaign(n_trials=64, seed=2, jobs=1)
        serial = span_shape(obs.span_tree())
        obs.reset()
        injector.run_campaign(n_trials=64, seed=2, jobs=4)
        parallel = span_shape(obs.span_tree())
        assert serial == parallel

    def test_unpickled_injector_steps_no_golden_run(self):
        import pickle

        from repro.arch import FaultInjector
        from repro.arch import programs as P

        injector = pickle.loads(pickle.dumps(FaultInjector(P.fibonacci(6))))
        obs.enable()
        result = injector.run_campaign(n_trials=64, seed=2)
        assert len(result.records) == 64

        def names(node):
            yield node["name"]
            for child in node.get("children", ()):
                yield from names(child)

        assert "arch.golden" not in set(names(obs.span_tree()))


class TestProgressTelemetry:
    def _event(self, **kw):
        base = dict(
            done=50, total=100, cached=0, elapsed_s=5.0,
            trials_per_sec=10.0, histogram={},
        )
        base.update(kw)
        return ProgressEvent(**base)

    def test_eta_extrapolates_remaining_trials(self):
        assert self._event().eta_s == pytest.approx(5.0)

    def test_eta_undefined_when_nothing_executed(self):
        all_cached = self._event(done=50, cached=50, trials_per_sec=0.0)
        assert all_cached.executed == 0
        assert all_cached.eta_s is None

    def test_print_progress_shows_eta(self, capsys):
        print_progress(self._event(), stream=None)
        err = capsys.readouterr().err
        assert "10.0 trials/s" in err
        assert "eta 5s" in err

    def test_print_progress_guards_all_cached_rate(self, capsys):
        print_progress(
            self._event(done=100, cached=100, trials_per_sec=0.0,
                        cache_hits=4, cache_misses=0)
        )
        err = capsys.readouterr().err
        assert "all from cache" in err
        assert "trials/s" not in err
        assert "cache 4h/0m" in err

    def test_eta_format_minutes(self, capsys):
        print_progress(self._event(trials_per_sec=0.5))
        assert "eta 1m40s" in capsys.readouterr().err

    def test_runner_fills_cache_fields(self, tmp_path):
        cache = ResultCache(tmp_path)
        CampaignRunner(chunk_size=8, cache=cache).run_trials(
            _span_chunk, 16, seed=0, key=("pf",)
        )
        log = ProgressLog()
        runner = CampaignRunner(chunk_size=8, cache=cache, progress=log)
        runner.run_trials(_span_chunk, 16, seed=0, key=("pf",))
        assert log.last.cache_hits == 2
        assert log.last.cache_misses == 0
        assert log.last.cached == 16
        assert runner.stats.cache_hits == 2


class TestRunRecord:
    def _record_small_campaign(self, tmp_path):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        injector = FaultInjector(P.fibonacci(6))
        with RunRecorder(
            tmp_path, name="fi", config={"trials": 48}, seed=0
        ) as recorder:
            with obs.span("cli.fi"):
                injector.run_campaign(n_trials=48, seed=0, jobs=2)
        return recorder

    def test_record_is_valid_jsonl_with_all_sections(self, tmp_path):
        recorder = self._record_small_campaign(tmp_path)
        assert recorder.path.is_file()
        kinds = []
        with open(recorder.path) as fh:
            for line in fh:
                kinds.append(json.loads(line)["type"])
        assert kinds == ["meta", "spans", "metrics", "campaigns", "outcomes"]

    def test_loaded_record_contents(self, tmp_path):
        recorder = self._record_small_campaign(tmp_path)
        record = load_run_record(recorder.run_dir)
        meta = record["meta"]
        assert meta["schema"] == 1
        assert meta["name"] == "fi"
        assert meta["seed_root"] == 0
        assert meta["status"] == "ok"
        assert meta["config_digest"] == config_digest({"trials": 48})
        import repro

        assert meta["version"] == repro.__version__
        assert sum(record["outcomes"]["histogram"].values()) == 48
        (campaign,) = record["campaigns"]["campaigns"]
        assert campaign["total_trials"] == 48
        layers = layer_breakdown(record["spans"]["root"])
        assert {"cli", "arch", "runtime"} <= set(layers)

    def test_load_accepts_base_dir_and_file(self, tmp_path):
        recorder = self._record_small_campaign(tmp_path)
        by_base = load_run_record(tmp_path)
        by_file = load_run_record(recorder.path)
        assert by_base["meta"]["run_id"] == by_file["meta"]["run_id"]

    def test_load_missing_record_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_record(tmp_path)

    def test_recorder_restores_disabled_state(self, tmp_path):
        self._record_small_campaign(tmp_path)
        assert not obs.enabled()

    def test_recorder_writes_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with RunRecorder(tmp_path, name="boom") as recorder:
                raise RuntimeError("nope")
        record = load_run_record(recorder.path)
        assert record["meta"]["status"] == "error: RuntimeError"

    def test_render_report_sections(self, tmp_path):
        recorder = self._record_small_campaign(tmp_path)
        text = render_report(load_run_record(recorder.run_dir))
        assert "== run record:" in text
        assert "== campaigns ==" in text
        assert "== outcomes ==" in text
        assert "== per-layer time ==" in text
        assert "== span tree ==" in text
        assert "arch.fault_injection.campaign" in text
        for layer in ("cli", "arch", "runtime"):
            assert layer in text


class TestLayerBreakdown:
    def test_self_time_excludes_children(self):
        root = {
            "name": "run", "count": 0, "total_s": 0.0,
            "children": [
                {
                    "name": "a.outer", "count": 1, "total_s": 10.0,
                    "children": [
                        {"name": "b.inner", "count": 5, "total_s": 4.0, "children": []}
                    ],
                }
            ],
        }
        layers = layer_breakdown(root)
        assert layers["a"]["self_s"] == pytest.approx(6.0)
        assert layers["b"]["self_s"] == pytest.approx(4.0)
        assert layers["b"]["calls"] == 5


class TestInstrumentedLayers:
    """Each instrumented seam emits its metrics when collection is on."""

    def test_sta_span_and_counters(self):
        from repro.circuit import SpiceLikeCharacterizer, build_default_library
        from repro.circuit import synthesize_core
        from repro.circuit.sta import StaticTimingAnalysis

        library = build_default_library()
        SpiceLikeCharacterizer().characterize_library(library)
        netlist = synthesize_core(library, n_instances=40, seed=0)
        obs.enable()
        StaticTimingAnalysis(netlist, library).run()
        counters = obs.metrics_snapshot()["counters"]
        assert counters["circuit.sta.runs"] == 1
        assert counters["circuit.sta.arrival_propagations"] == len(netlist)
        (sta_span,) = obs.span_tree()["children"]
        assert sta_span["name"] == "circuit.sta.run"

    def test_fig3_ml_characterization_spans(self):
        from repro.circuit import (
            SpiceLikeCharacterizer,
            build_default_library,
            guardband_comparison,
            synthesize_core,
        )

        library = build_default_library()
        SpiceLikeCharacterizer().characterize_library(library)
        netlist = synthesize_core(library, n_instances=40, seed=0)
        obs.enable()
        guardband_comparison(netlist, build_default_library, ml_training_samples=100)
        top = {node["name"]: node for node in obs.span_tree()["children"]}
        assert {"circuit.ml_char.label", "circuit.ml_char.validate",
                "circuit.ml_char.generate"} <= set(top)
        for name in ("circuit.ml_char.validate", "circuit.ml_char.generate"):
            assert top[name]["count"] == 1
        (fit,) = [node for node in top["circuit.ml_char.label"]["children"]
                  if node["name"] == "ml.mlp.fit"]
        assert fit["count"] == 1
        assert fit["attrs"] == {"rows": 100}

    def test_aging_eval_counters(self):
        from repro.transistor.aging import hci_delta_vth, nbti_delta_vth

        obs.enable()
        nbti_delta_vth([1e6, 1e7, 1e8], 0.5, 100.0)
        hci_delta_vth(1e7, 0.2, 85.0)
        counters = obs.metrics_snapshot()["counters"]
        assert counters["transistor.aging.nbti_evals"] == 3
        assert counters["transistor.aging.hci_evals"] == 1

    def test_montecarlo_level_span(self):
        from repro.core import MonteCarloStudy, adpcm_like_workload

        study = MonteCarloStudy(adpcm_like_workload(n_segments=4, seed=0), n_runs=3)
        obs.enable()
        study.sweep([1e-6, 1e-5])
        (campaign,) = obs.span_tree()["children"]
        (level,) = campaign["children"]
        assert level["name"] == "core.montecarlo.level"
        assert level["count"] == 2
        assert obs.metrics_snapshot()["counters"]["core.montecarlo.levels"] == 2

    def test_framework_episode_span(self):
        from repro.core.framework import ReliabilityManagementLoop
        from repro.system.rl import QLearningAgent

        loop = ReliabilityManagementLoop(
            agent=QLearningAgent(n_actions=2, seed=0),
            observe=lambda s: (0,),
            apply_action=lambda s, a: None,
            reward=lambda s: 1.0,
            step_system=lambda s: None,
        )
        obs.enable()
        loop.run_episode(object(), n_epochs=5)
        (episode,) = obs.span_tree()["children"]
        assert episode["name"] == "core.framework.episode"
        assert obs.metrics_snapshot()["counters"]["core.framework.epochs"] == 5

    def test_platform_and_scheduler_counters(self):
        from repro.system import StaticManager, generate_task_set
        from repro.system import run_managed_simulation

        obs.enable()
        run_managed_simulation(
            StaticManager(), generate_task_set(n_tasks=4, total_utilization=1.0,
                                               seed=0),
            n_cores=2, duration=2.0, seed=0,
        )
        counters = obs.metrics_snapshot()["counters"]
        assert counters["system.managers.control_epochs"] > 0
        assert counters["system.platform.steps"] > 0
        assert counters["system.scheduler.partitions"] == 1
        assert counters["system.scheduler.edf_checks"] > 0
        (sim,) = obs.span_tree()["children"]
        assert sim["name"] == "system.managers.simulation"
        assert sim["children"][0]["name"] == "system.platform.run"


class TestCLIIntegration:
    def test_record_flag_writes_and_report_renders(self, tmp_path, capsys,
                                                   monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        runs = tmp_path / "runs"
        assert main(["fi", "--trials", "64", "--no-cache",
                     "--record", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "run record:" in out
        record = load_run_record(runs)
        assert record["meta"]["name"] == "fi"
        layers = set(layer_breakdown(record["spans"]["root"]))
        assert {"cli", "arch", "runtime"} <= layers
        assert main(["report", str(runs)]) == 0
        report = capsys.readouterr().out
        assert "per-layer time" in report
        assert "arch" in report

    def test_recording_is_off_after_cli_run(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fi", "--trials", "32", "--no-cache",
                     "--record", str(tmp_path / "runs")]) == 0
        assert not obs.enabled()

    def test_report_missing_path_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nowhere")]) == 2
        assert "cannot load run record" in capsys.readouterr().err

    def test_unrecorded_run_adds_no_observability_state(self, tmp_path, capsys,
                                                        monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fi", "--trials", "32", "--no-cache"]) == 0
        assert obs.span_tree()["children"] == []
        assert obs.metrics_snapshot()["counters"] == {}


class TestTornTailRunRecord:
    """A killed writer leaves a truncated final record line; tolerate it."""

    def _torn_record(self, tmp_path):
        path = tmp_path / "record.jsonl"
        lines = [
            json.dumps({"type": "meta", "run_id": "torn", "schema": 1,
                        "name": "fi", "status": "ok"}),
            json.dumps({"type": "spans",
                        "root": {"name": "run", "count": 0, "total_s": 0.0,
                                 "children": []}}),
            json.dumps({"type": "metrics", "counters": {}, "gauges": {},
                        "histograms": {}}),
        ]
        path.write_text("\n".join(lines) + '\n{"type": "outcomes", "hist')
        return path

    def test_torn_tail_warns_and_keeps_parsed_sections(self, tmp_path):
        path = self._torn_record(tmp_path)
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            record = load_run_record(path)
        assert record["meta"]["run_id"] == "torn"
        assert "spans" in record and "metrics" in record
        assert "outcomes" not in record  # the torn line is dropped

    def test_intact_record_loads_without_warning(self, tmp_path):
        path = tmp_path / "record.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "run_id": "ok", "schema": 1}) + "\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = load_run_record(path)
        assert record["meta"]["run_id"] == "ok"


class TestHistogramQuantiles:
    def test_nearest_rank_percentiles(self):
        stat = HistogramStat()
        for v in range(1, 101):
            stat.observe(float(v))
        d = stat.to_dict()
        assert d["p50"] == 51.0
        assert d["p95"] == 96.0
        assert d["p99"] == 100.0
        assert d["reservoir"][:3] == [1.0, 2.0, 3.0]

    def test_empty_histogram_has_none_quantiles(self):
        d = HistogramStat().to_dict()
        assert d["p50"] is None and d["p95"] is None and d["p99"] is None

    def test_reservoir_is_bounded(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        stat = HistogramStat()
        for v in range(RESERVOIR_SIZE + 100):
            stat.observe(float(v))
        assert stat.count == RESERVOIR_SIZE + 100
        assert len(stat.reservoir) == RESERVOIR_SIZE
        assert stat.max == float(RESERVOIR_SIZE + 99)  # summary stays exact

    def test_absorb_merges_reservoirs_up_to_the_cap(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        a, b = HistogramStat(), HistogramStat()
        a.observe(1.0)
        b.observe(9.0)
        b.observe(5.0)
        a.absorb(b.to_dict())
        assert sorted(a.reservoir) == [1.0, 5.0, 9.0]
        assert a.quantile(0.5) == 5.0
        full = HistogramStat()
        for v in range(RESERVOIR_SIZE):
            full.observe(float(v))
        full.absorb(b.to_dict())
        assert len(full.reservoir) == RESERVOIR_SIZE
        assert full.count == RESERVOIR_SIZE + 2

    def test_render_report_surfaces_quantiles(self, tmp_path):
        with RunRecorder(tmp_path, name="hist") as recorder:
            for v in (1.0, 2.0, 3.0, 10.0):
                obs.observe("runtime.unit.seconds", v)
        text = render_report(load_run_record(recorder.run_dir))
        assert "== histograms ==" in text
        assert "p50" in text and "p95" in text and "p99" in text
        assert "runtime.unit.seconds" in text


class TestMetricNamespace:
    """Every metric the library emits must map onto a known layer."""

    _SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
    _METRIC_CALL = re.compile(
        r"obs\.(?:inc|set_gauge|observe)\(\s*f?[\"']([^\"']+)[\"']"
    )

    def _emitted_names(self):
        names = set()
        for path in self._SRC.rglob("*.py"):
            names.update(self._METRIC_CALL.findall(path.read_text()))
        return names

    def test_every_emitted_family_has_a_known_layer(self):
        known = {"transistor", "circuit", "arch", "core", "runtime",
                 "system", "cli"}
        names = self._emitted_names()
        assert len(names) >= 20  # the instrumented seams exist
        for name in sorted(names):
            assert layer_of(name) in known, f"unknown layer: {name}"
            assert name.count(".") >= 2, f"not layer.component.metric: {name}"

    def test_known_seams_are_still_instrumented(self):
        names = self._emitted_names()
        for expected in (
            "arch.fault_injection.trials",
            "runtime.cache.hits",
            "runtime.fault.retries",
            "runtime.runner.trials_executed",
            "transistor.aging.nbti_evals",
            "circuit.sta.runs",
            "system.scheduler.placements",
        ):
            assert expected in names, f"seam lost: {expected}"
