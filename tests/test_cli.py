"""Tests for the ``python -m repro`` experiment CLI."""

import re

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def _table_lines(out):
    """Rendered table rows only (drops timing-dependent runtime lines)."""
    return [l for l in out.splitlines() if l and not l.startswith("runtime:")]


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.runs == 100
        assert args.instances == 300

    def test_overrides(self):
        args = build_parser().parse_args(["fig6", "--runs", "10"])
        assert args.runs == 10

    def test_runtime_flag_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None
        assert args.progress is False
        assert args.trials == 500

    def test_runtime_flag_overrides(self):
        args = build_parser().parse_args(
            ["fi", "--jobs", "4", "--no-cache", "--trials", "200",
             "--cache-dir", "/tmp/somewhere", "--progress"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.trials == 200
        assert args.cache_dir == "/tmp/somewhere"
        assert args.progress is True

    def test_reference_kernel_flag(self):
        assert build_parser().parse_args(["fig5"]).reference_kernel is False
        args = build_parser().parse_args(["fig6", "--reference-kernel"])
        assert args.reference_kernel is True


class TestMain:
    def test_list_enumerates_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_shows_one_line_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # Each experiment line carries its runner's docstring summary.
        assert "Fig. 5: rollbacks per segment vs error probability." in out
        assert "fault-injection campaign with outcome taxonomy" in out
        assert "report" in out  # the run-record renderer is advertised too

    def test_list_survives_missing_docstring(self, capsys, monkeypatch):
        def undocumented(args):
            pass

        monkeypatch.setitem(EXPERIMENTS, "nodoc", undocumented)
        assert main(["list"]) == 0
        assert "(no description)" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--runs", "10"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "1e-08" in out

    def test_fig6_runs(self, capsys):
        assert main(["fig6", "--runs", "10"]) == 0
        out = capsys.readouterr().out
        assert "WCET" in out

    def test_wall_runs(self, capsys):
        assert main(["wall", "--runs", "10"]) == 0
        out = capsys.readouterr().out
        assert "error-rate wall" in out

    def test_list_advertises_reference_kernel(self, capsys):
        assert main(["list"]) == 0
        assert "--reference-kernel" in capsys.readouterr().out

    def test_list_advertises_reference_engine(self, capsys):
        assert main(["list"]) == 0
        assert "--reference-engine" in capsys.readouterr().out

    def test_engine_flag_is_gone(self, capsys):
        # --reference-engine is the only fault-injection engine switch.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fi", "--engine", "batched"])
        assert exc.value.code == 2

    def test_fi_reference_engine_recorded_run(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = tmp_path / "runs"
        assert main(["fi", "--trials", "32", "--no-cache",
                     "--reference-engine", "--record", str(runs)]) == 0
        assert "engine: reference," in capsys.readouterr().out
        from repro.obs import load_run_record

        config = load_run_record(runs)["meta"]["config"]
        assert config["reference_engine"] is True
        assert "engine" not in config
        assert config["resolved"]["fi_engine"]["engine"] == "reference"

    def test_fi_recorded_run_spans_one_golden_pass(self, capsys, tmp_path,
                                                   monkeypatch):
        """The injector's one golden recording pass is the run's only
        ``arch.golden`` span: the batched engine reads its trace."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = tmp_path / "runs"
        assert main(["fi", "--trials", "32", "--no-cache",
                     "--record", str(runs)]) == 0
        assert "engine: batched, golden " in capsys.readouterr().out
        from repro.obs import load_run_record

        parents = []

        def walk(node):
            for child in node.get("children", ()):
                if child["name"] == "arch.golden":
                    parents.append(node["name"])
                walk(child)

        walk(load_run_record(runs)["spans"]["root"])
        assert parents == ["cli.fi"]

    def test_fi_recorded_run_counts_proven_hangs(self, capsys, tmp_path,
                                                 monkeypatch):
        """Off-trace hangs of a recorded run are proven by the loop
        certificate, and the record says so: the proofs, the budget
        cycles they skipped and the cycles the block interpreter ran."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = tmp_path / "runs"
        assert main(["fi", "--trials", "300", "--no-cache",
                     "--record", str(runs)]) == 0
        capsys.readouterr()
        from repro.obs import load_run_record, verify_record

        record = load_run_record(runs)
        counters = record["metrics"]["counters"]
        proven = counters["arch.fi.engine.hangs_proven"]
        assert 0 < proven <= record["outcomes"]["histogram"]["hang"]
        budget = record["meta"]["config"]["resolved"]["fi_engine"]
        assert 0 < counters["arch.fi.engine.hang_cycles_skipped"] < proven * (
            budget["max_cycles"] - budget["golden_cycles"])
        assert counters["arch.fi.engine.block_cycles"] > 0
        assert verify_record(record["path"]) == []

    def test_fi_parallel_recorded_run_reconciles(self, capsys, tmp_path,
                                                 monkeypatch):
        """A recorded --jobs 2 campaign runs on forked tcp workers, and
        its event stream still reconciles with the outcome histogram:
        nothing dropped, no line written twice by a forked child."""
        from collections import Counter

        from repro.obs import load_run_record, read_events, trial_rows

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = tmp_path / "runs"
        # 2560 trials = three 1024-trial chunks: enough units for workers.
        assert main(["fi", "--trials", "2560", "--jobs", "2", "--no-cache",
                     "--record", str(runs)]) == 0
        capsys.readouterr()
        (run_dir,) = runs.iterdir()
        record = load_run_record(run_dir)
        (campaign,) = record["campaigns"]["campaigns"]
        assert campaign["transport"] == "tcp"
        assert record["meta"]["events_dropped"] == 0
        events_path = run_dir / record["meta"]["events_file"]
        lines = events_path.read_text().splitlines()
        assert len(lines) == len(set(lines))
        histogram = record["outcomes"]["histogram"]
        rows = trial_rows(read_events(events_path))
        assert Counter(row[3] for row in rows) == Counter(histogram)
        assert sum(histogram.values()) == 2560

    def test_fig5_reference_kernel_runs(self, capsys):
        # The Fig. 5 statistic is draw-for-draw identical across kernels,
        # so the rendered table must not change under --reference-kernel.
        assert main(["fig5", "--runs", "10", "--no-cache"]) == 0
        batched = capsys.readouterr().out
        assert main(
            ["fig5", "--runs", "10", "--no-cache", "--reference-kernel"]
        ) == 0
        scalar = capsys.readouterr().out
        assert "Fig. 5" in scalar
        assert _table_lines(batched) == _table_lines(scalar)

    def test_fig6_reference_kernel_runs(self, capsys):
        assert main(
            ["fig6", "--runs", "5", "--no-cache", "--reference-kernel"]
        ) == 0
        assert "WCET" in capsys.readouterr().out

    def test_hdc_runs(self, capsys):
        assert main(["hdc"]) == 0
        out = capsys.readouterr().out
        assert "HDC accuracy" in out

    def test_multiple_experiments_in_sequence(self, capsys):
        assert main(["fig5", "fig6", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "Fig. 6" in out

    def test_fig2_runs_small(self, capsys):
        assert main(["fig2", "--instances", "80"]) == 0
        out = capsys.readouterr().out
        assert "SHE dT" in out

    def test_fig5_parallel_matches_serial(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig5", "--runs", "10", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig5", "--runs", "10", "--jobs", "2", "--no-cache"]) == 0
        parallel = capsys.readouterr().out
        # Identical tables; only the runtime accounting line may differ.
        strip = lambda out: [l for l in out.splitlines() if not l.startswith("runtime:")]
        assert strip(serial) == strip(parallel)

    def test_fig5_cache_rerun_executes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig5", "--runs", "10"]) == 0
        first = capsys.readouterr().out
        assert "7 levels executed, 0 cached" in first
        assert main(["fig5", "--runs", "10"]) == 0
        second = capsys.readouterr().out
        assert "0 levels executed, 7 cached" in second

    def test_fi_campaign_with_runtime_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fi", "--trials", "100", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "100-trial campaign" in out
        assert "masked" in out
        assert "100 trials executed" in out

    def test_progress_flag_streams_to_stderr(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fi", "--trials", "64", "--no-cache", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[64/64]" in err
        assert "trials/s" in err

    def test_fi_steer_prints_summary_and_saves_trials(self, capsys, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fi", "--trials", "1024", "--steer", "--no-cache"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"steering: AVF [0-9.]+ \u00b1 [0-9.]+", out)
        assert match, out
        assert "stopped on target" in out
        assert re.search(r"\(\d+ saved\)", out)

    def test_fi_steer_flags_validate(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fi", "--steer", "--target-ci", "0.7"])
        args = build_parser().parse_args(
            ["fi", "--steer", "--target-ci", "0.05", "--no-early-stop"]
        )
        assert args.steer and args.target_ci == 0.05 and args.no_early_stop

    def test_list_advertises_steering(self, capsys):
        assert main(["list"]) == 0
        assert "--steer" in capsys.readouterr().out

    def test_fi_steer_recorded_run_resolves_steering(self, capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = tmp_path / "runs"
        assert main(["fi", "--trials", "1024", "--steer", "--no-cache",
                     "--record", str(runs)]) == 0
        capsys.readouterr()
        from repro.obs import load_run_record

        record = load_run_record(runs)
        config = record["meta"]["config"]
        assert config["steer"] is True
        assert config["target_ci"] == 0.02
        steering = config["resolved"]["steering"]
        assert steering["trials_executed"] + steering["trials_saved"] == 1024
        counters = record["metrics"]["counters"]
        assert (counters["arch.fi.steering.trials_saved"]
                == steering["trials_saved"])

    def test_progress_on_fully_cached_rerun_prints_no_rate(self, capsys, tmp_path,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fi", "--trials", "64"]) == 0
        capsys.readouterr()
        assert main(["fi", "--trials", "64", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "all from cache" in err
        assert "trials/s" not in err


class TestWorkerCLI:
    """``repro worker`` argument validation (``--connect`` is its mode)."""

    def test_needs_exactly_one_mode(self, capsys):
        """Dialing a tcp scheduler is the one mode: without --connect the
        worker exits 2 with a one-line message, and a positional
        argument is an argparse error."""
        from repro.cli import run_worker

        assert run_worker([]) == 2
        err = capsys.readouterr().err
        assert "needs --connect HOST:PORT" in err
        assert len(err.strip().splitlines()) == 1
        with pytest.raises(SystemExit) as exc:
            run_worker(["/tmp/q", "--connect", "h:1"])
        assert exc.value.code == 2

    def test_once_rejected_for_tcp_workers(self, capsys):
        from repro.cli import run_worker

        with pytest.raises(SystemExit) as exc:
            run_worker(["--connect", "h:1", "--once"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --once" in capsys.readouterr().err

    def test_tcp_is_the_only_external_transport(self, capsys):
        """Any name outside inline/tcp is an argparse error (exit 2)."""
        from repro.cli import build_parser

        parser = build_parser()
        choices = next(
            action.choices for action in parser._actions
            if action.dest == "transport"
        )
        assert tuple(choices) == ("auto", "inline", "tcp")
        for name in ("carrier-pigeon", "pool"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["fi", "--transport", name])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_malformed_connect_address_is_a_clean_error(self, capsys):
        from repro.cli import run_worker

        assert run_worker(["--connect", "nohost"]) == 2
        assert "not HOST:PORT" in capsys.readouterr().err
        assert run_worker(["--connect", "h:notaport"]) == 2
        assert "non-numeric port" in capsys.readouterr().err

    def test_malformed_listen_address_is_a_clean_error(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit, match="--listen.*non-numeric port"):
            main(["fi", "--trials", "8", "--no-cache",
                  "--transport", "tcp", "--listen", "127.0.0.1:bad"])


class TestReportAndWatchCLI:
    """The flight-recorder surface: report --list/--diff/exports, watch."""

    def _record_runs(self, tmp_path, monkeypatch, capsys, n=1):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        runs = tmp_path / "runs"
        for i in range(n):
            assert main(["fi", "--trials", str(32 + 16 * i), "--no-cache",
                         "--record", str(runs)]) == 0
        capsys.readouterr()
        return runs

    def test_report_parser_flags(self):
        from repro.cli import build_report_parser

        args = build_report_parser().parse_args(
            ["runs", "--list", "--trace-out", "t.json", "--prom-out", "m.prom"]
        )
        assert args.paths == ["runs"]
        assert args.list_runs and not args.diff
        assert args.trace_out == "t.json"
        assert args.prom_out == "m.prom"

    def test_report_list_prints_one_line_per_run(self, capsys, tmp_path,
                                                 monkeypatch):
        runs = self._record_runs(tmp_path, monkeypatch, capsys, n=2)
        assert main(["report", str(runs), "--list"]) == 0
        out = capsys.readouterr().out
        assert f"runs under {runs}" in out
        assert "run id" in out and "experiment" in out
        body = [l for l in out.splitlines()
                if l.strip() and "==" not in l and "run id" not in l]
        assert len(body) == 2
        assert all(" fi " in l or l.rstrip().endswith("fi") or " ok " in l
                   for l in body)

    def test_report_list_rejects_multiple_paths(self, capsys, tmp_path):
        assert main(["report", str(tmp_path), str(tmp_path), "--list"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_report_base_dir_resolution_is_announced(self, capsys, tmp_path,
                                                     monkeypatch):
        runs = self._record_runs(tmp_path, monkeypatch, capsys)
        assert main(["report", str(runs)]) == 0
        captured = capsys.readouterr()
        assert "resolved newest run record under" in captured.err
        assert "use --list to see all runs" in captured.err
        assert "== run record:" in captured.out

    def test_report_run_dir_needs_no_notice(self, capsys, tmp_path,
                                            monkeypatch):
        runs = self._record_runs(tmp_path, monkeypatch, capsys)
        (run_dir,) = runs.iterdir()
        assert main(["report", str(run_dir)]) == 0
        assert "resolved newest" not in capsys.readouterr().err

    def test_report_diff_renders_all_sections(self, capsys, tmp_path,
                                              monkeypatch):
        runs = self._record_runs(tmp_path, monkeypatch, capsys, n=2)
        a, b = sorted(str(p) for p in runs.iterdir())
        assert main(["report", "--diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "== run diff:" in out
        assert "== outcome deltas ==" in out
        assert "chi-square" in out
        assert "== config diff ==" in out
        assert "trials" in out  # 32 vs 48 shows up in the config diff

    def test_report_diff_requires_two_paths(self, capsys, tmp_path,
                                            monkeypatch):
        runs = self._record_runs(tmp_path, monkeypatch, capsys)
        assert main(["report", "--diff", str(runs)]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_report_exports_trace_and_prom(self, capsys, tmp_path,
                                           monkeypatch):
        import json

        runs = self._record_runs(tmp_path, monkeypatch, capsys)
        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        assert main(["report", str(runs), "--trace-out", str(trace),
                     "--prom-out", str(prom)]) == 0
        out = capsys.readouterr().out
        assert f"chrome trace: {trace}" in out
        assert f"prometheus metrics: {prom}" in out
        document = json.loads(trace.read_text())
        assert document["traceEvents"]
        # The recorded run has an events.jsonl, so instants ride along.
        assert any(e["ph"] == "i" for e in document["traceEvents"])
        text = prom.read_text()
        assert "repro_run_info" in text
        assert "_total" in text

    def test_report_exports_create_missing_directories(self, capsys, tmp_path,
                                                       monkeypatch):
        # CI exports into a fresh ``exports/`` directory.
        runs = self._record_runs(tmp_path, monkeypatch, capsys)
        trace = tmp_path / "exports" / "trace.json"
        prom = tmp_path / "exports" / "prom" / "metrics.prom"
        assert main(["report", str(runs), "--trace-out", str(trace),
                     "--prom-out", str(prom)]) == 0
        capsys.readouterr()
        assert trace.is_file() and prom.is_file()

    def test_watch_once_summarizes_finished_run(self, capsys, tmp_path,
                                                monkeypatch):
        runs = self._record_runs(tmp_path, monkeypatch, capsys)
        (run_dir,) = runs.iterdir()
        assert main(["watch", str(run_dir), "--once"]) == 0
        err = capsys.readouterr().err  # status goes to stderr, like progress
        assert "[32/32]" in err
        assert "run finished" in err

    def test_watch_once_missing_events_exits_2(self, capsys, tmp_path):
        assert main(["watch", str(tmp_path), "--once"]) == 2
        assert "no events.jsonl" in capsys.readouterr().err

    def test_watch_accepts_events_file_path(self, capsys, tmp_path,
                                            monkeypatch):
        runs = self._record_runs(tmp_path, monkeypatch, capsys)
        (run_dir,) = runs.iterdir()
        assert main(["watch", str(run_dir / "events.jsonl"), "--once"]) == 0
        assert "trials/s" in capsys.readouterr().err

    def test_list_advertises_report_and_watch(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "report" in out and "diff" in out
        assert "watch" in out
        assert "worker --connect HOST:PORT" in out
