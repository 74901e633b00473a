"""The perf-smoke harness's one gate function, on synthetic entries.

No bench runs here: each test builds an entry by hand and checks what
``perf_smoke.gate`` flags against its gate table and a baseline.
"""

import copy
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf_smoke.py"
_spec = importlib.util.spec_from_file_location("perf_smoke", _PATH)
perf_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_smoke)


def _entry(**overrides):
    """An entry whose every gated field sits exactly at its bound."""
    results = {
        "fig5_fig6_sweep": {"speedup": 5.0, "n_runs": 100},
        "wall_ablation": {"speedup": 5.0, "n_runs": 100},
        "dist_scaling": {"speedup": 2.0, "n_units": 48},
        "sched_overhead": {"overhead_us_per_unit": 500.0, "n_units": 512},
        "obs_overhead": {"overhead": 0.05, "n_trials": 400},
    }
    for bench, fields in overrides.items():
        results[bench].update(fields)
    return {"created_utc": "2026-01-01T00:00:00+00:00", "results": results}


def test_gate_table_keeps_the_bounds():
    assert perf_smoke.GATES == {
        "fig5_fig6_sweep": ("speedup", ">=", 5.0),
        "wall_ablation": ("speedup", ">=", 5.0),
        "dist_scaling": ("speedup", ">=", 2.0),
        "sched_overhead": ("overhead_us_per_unit", "<=", 500.0),
        "obs_overhead": ("overhead", "<=", 0.05),
    }
    assert perf_smoke.REGRESSION_FACTOR == 2.0
    assert set(perf_smoke.BENCHES) == set(perf_smoke.GATES)


def test_entry_at_every_bound_passes():
    entry = _entry()
    assert perf_smoke.gate(entry) == []
    assert perf_smoke.gate(entry, baseline=copy.deepcopy(entry)) == []


@pytest.mark.parametrize("bench, field, value", [
    ("fig5_fig6_sweep", "speedup", 4.9),
    ("wall_ablation", "speedup", 4.9),
    ("dist_scaling", "speedup", 1.9),
    ("sched_overhead", "overhead_us_per_unit", 501.0),
    ("obs_overhead", "overhead", 0.051),
])
def test_each_bound_is_enforced(bench, field, value):
    failures = perf_smoke.gate(_entry(**{bench: {field: value}}))
    assert len(failures) == 1
    assert failures[0].startswith(f"{bench}: {field}")


def test_speedup_drop_beyond_twofold_is_flagged():
    baseline = _entry(fig5_fig6_sweep={"speedup": 90.0},
                      dist_scaling={"speedup": 4.0})
    entry = _entry(fig5_fig6_sweep={"speedup": 44.9},
                   dist_scaling={"speedup": 2.0})
    failures = perf_smoke.gate(entry, baseline)
    assert len(failures) == 1
    assert failures[0].startswith("fig5_fig6_sweep: speedup 44.9x")
    # A drop of exactly 2x is allowed.
    assert perf_smoke.gate(_entry(fig5_fig6_sweep={"speedup": 45.0}),
                           baseline) == []


@pytest.mark.parametrize("bench, scale", [
    ("fig5_fig6_sweep", {"n_runs": 1000}),
    ("dist_scaling", {"n_units": 96}),
])
def test_baseline_at_another_scale_is_skipped(bench, scale, capsys):
    baseline = _entry(**{bench: dict(scale, speedup=1000.0)})
    assert perf_smoke.gate(_entry(), baseline) == []
    assert f"skip {bench} drift check" in capsys.readouterr().out

