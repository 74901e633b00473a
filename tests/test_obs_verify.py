"""Run-record self-check (``repro.obs.verify_record``, ``report --check``).

A recorded campaign states its outcomes three ways — the record's
histogram and resolved config, the ``events.jsonl`` stream, and the
metric counters.  These tests record a tiny uniform and a tiny steered
``fi`` run through the CLI, check that both verify clean, and check that
tampering with one copy of the facts is flagged.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.obs import (
    EVENTS_FILENAME,
    load_run_record,
    trial_columns,
    trial_rows,
    verify_record,
)
from repro.obs.record import ENGINE_PATHS


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    base = tmp_path_factory.mktemp("records")
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(base / "cache"))
        for name, extra in (
            ("uniform", ["--trials", "64", "--jobs", "2"]),
            ("steered", ["--trials", "2048", "--steer", "--target-ci", "0.01"]),
        ):
            assert main(["fi", *extra, "--no-cache",
                         "--record", str(base / name)]) == 0
            (runs[name],) = (base / name).iterdir()
    return runs


def _tampered(run_dir, tmp_path, edit):
    """Copy ``run_dir`` and rewrite its event stream with ``edit``."""
    copy = tmp_path / run_dir.name
    shutil.copytree(run_dir, copy)
    path = copy / EVENTS_FILENAME
    events = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(e) + "\n" for e in edit(events)))
    return copy


def _drop_one_trial_row(events):
    frame = next(e for e in events if e["ev"] == "fi.trials")
    rows = trial_rows([frame])[1:]
    frame.update(trial_columns([row[:3] for row in rows],
                               [row[3] for row in rows]))
    return events


@pytest.mark.parametrize("name", ["uniform", "steered"])
def test_recorded_runs_verify_clean(recorded, name):
    assert verify_record(recorded[name]) == []


@pytest.mark.parametrize("name", ["uniform", "steered"])
def test_missing_trial_row_is_flagged(recorded, tmp_path, name):
    problems = verify_record(
        _tampered(recorded[name], tmp_path, _drop_one_trial_row))
    assert any("fi.trials rows" in p for p in problems), problems


def test_cached_runs_verify_clean(tmp_path, monkeypatch):
    """Cached units emit no ``fi.trials`` rows: a repeated run (all
    cached) and an extended one (partly cached) verify clean, and a
    missing row, or rows beyond an outcome's histogram count, of the
    partly cached run are still flagged."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runs = []
    for i, trials in enumerate(("1024", "1024", "1100")):
        base = tmp_path / f"run{i}"
        assert main(["fi", "--trials", trials, "--record", str(base)]) == 0
        (run,) = base.iterdir()
        runs.append(run)
    cached = [load_run_record(run)["campaigns"]["campaigns"][0]["cached_trials"]
              for run in runs]
    assert cached == [0, 1024, 1024]
    for run in runs:
        assert verify_record(run) == []
    problems = verify_record(_tampered(runs[2], tmp_path, _drop_one_trial_row))
    assert "fi.trials rows vs executed trials: 75 != 76" in problems

    def move_masked_to_sdc(counters, histogram):
        histogram["sdc"] += histogram["masked"]
        histogram["masked"] = 0

    (tmp_path / "moved").mkdir()
    problems = verify_record(
        _tampered_counters(runs[2], tmp_path / "moved", move_masked_to_sdc))
    assert len(problems) == 1 and problems[0].startswith(
        "fi.trials rows beyond the outcome histogram: {'masked': "), problems


def test_refit_event_is_flagged(recorded, tmp_path):
    def add_refit(events):
        return events + [{"ev": "steer.refit", "round": 0}]

    problems = verify_record(
        _tampered(recorded["steered"], tmp_path, add_refit))
    assert problems == ["steer.refit events: 1 != 0"]


def test_steer_events_must_match_the_summary(recorded, tmp_path):
    def drop_a_round(events):
        i = next(i for i, e in enumerate(events) if e["ev"] == "steer.round")
        return events[:i] + events[i + 1:]

    problems = verify_record(
        _tampered(recorded["steered"], tmp_path, drop_a_round))
    assert len(problems) == 1 and problems[0].startswith(
        "steer.round events vs rounds"), problems


def test_report_check_exit_codes(recorded, tmp_path, capsys):
    assert main(["report", str(recorded["uniform"].parent),
                 str(recorded["steered"].parent), "--check"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 2 and "FAIL" not in out
    bad = _tampered(recorded["uniform"], tmp_path, _drop_one_trial_row)
    assert main(["report", str(bad), "--check"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL ") and "fi.trials rows" in out


def _tampered_counters(run_dir, tmp_path, edit):
    """Copy ``run_dir`` and apply ``edit(counters, histogram)`` to its record."""
    copy = tmp_path / run_dir.name
    shutil.copytree(run_dir, copy)
    path = copy / "record.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    histogram = next(x for x in lines if x.get("type") == "outcomes")["histogram"]
    metrics = next(x for x in lines if x.get("type") == "metrics")
    edit(metrics["counters"], histogram)
    path.write_text("".join(json.dumps(x) + "\n" for x in lines))
    return copy


def test_more_proven_hangs_than_hang_rows_is_flagged(recorded, tmp_path):
    def edit(counters, histogram):
        counters["arch.fi.engine.hangs_proven"] = histogram["hang"] + 2

    assert verify_record(_tampered_counters(recorded["uniform"], tmp_path, edit)) == [
        "hangs proven beyond HANG fi.trials rows: 2 != 0"]


def test_more_pc_flips_outside_than_crash_rows_is_flagged(recorded, tmp_path):
    def edit(counters, histogram):
        counters["arch.fi.engine.pc_outside"] = histogram["crash"] + 1

    assert verify_record(_tampered_counters(recorded["uniform"], tmp_path, edit)) == [
        "pc flips outside the program beyond CRASH fi.trials rows: 1 != 0"]


@pytest.mark.parametrize("name", ["uniform", "steered"])
@pytest.mark.parametrize("counter", ["batch.lanes", "pruned_dead"])
def test_trial_path_counters_must_add_up_to_the_rows(recorded, tmp_path,
                                                     name, counter):
    # Every batched-engine trial takes exactly one path: out of the
    # window, pruned as dead, a register trial or a pc/ir trial.
    counters = load_run_record(recorded[name])["metrics"]["counters"]
    rows = sum(counters.get(path, 0) for path in ENGINE_PATHS)
    assert rows == sum(load_run_record(recorded[name])["outcomes"][
        "histogram"].values())

    def edit(counters, histogram):
        key = "arch.fi.engine." + counter
        counters[key] = counters.get(key, 0) + 1

    assert verify_record(_tampered_counters(recorded[name], tmp_path, edit)) == [
        "engine path counters vs batched-engine fi.trials rows: "
        f"{rows + 1} != {rows}"]
