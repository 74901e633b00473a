"""Tests for run-record diff analytics (repro.obs.diff)."""

from repro.obs.diff import (
    CHI2_CRIT_05,
    chi2_critical,
    diff_records,
    outcome_chi2,
    render_diff,
)


def _record(run_id, histogram, counters=None, config=None, elapsed=1.0):
    return {
        "meta": {"run_id": run_id, "name": f"exp-{run_id}",
                 "elapsed_s": elapsed, "config": config or {}},
        "spans": {"root": {
            "name": "run", "count": 1, "total_s": 0.0, "children": [
                {"name": "runtime.campaign", "count": 1,
                 "total_s": elapsed, "attrs": {}, "children": []},
            ],
        }},
        "metrics": {"counters": counters or {}, "gauges": {},
                    "histograms": {}},
        "outcomes": {"histogram": histogram},
    }


class TestOutcomeChi2:
    def test_strongly_shifted_mix_is_flagged(self):
        stat, df, critical, flagged = outcome_chi2(
            {"masked": 90, "sdc": 10}, {"masked": 10, "sdc": 90}
        )
        assert df == 1
        assert stat > critical
        assert flagged

    def test_identical_histograms_are_not_flagged(self):
        stat, df, critical, flagged = outcome_chi2(
            {"masked": 50, "sdc": 50}, {"masked": 50, "sdc": 50}
        )
        assert stat == 0.0
        assert not flagged

    def test_sampling_noise_is_not_flagged(self):
        stat, _, _, flagged = outcome_chi2(
            {"masked": 52, "sdc": 48}, {"masked": 48, "sdc": 52}
        )
        assert not flagged

    def test_empty_run_is_degenerate(self):
        assert outcome_chi2({}, {"masked": 10}) == (0.0, 0, 0.0, False)
        assert outcome_chi2({"masked": 10}, {}) == (0.0, 0, 0.0, False)

    def test_single_shared_label_is_degenerate(self):
        stat, df, critical, flagged = outcome_chi2(
            {"masked": 5}, {"masked": 7}
        )
        assert df == 0
        assert stat == 0.0
        assert not flagged


class TestChi2Critical:
    def test_tabulated_values_are_exact(self):
        assert chi2_critical(1) == CHI2_CRIT_05[1] == 3.841
        assert chi2_critical(4) == 9.488

    def test_wilson_hilferty_fallback_tracks_the_true_value(self):
        # True 5% critical values beyond the table: df=20 -> 31.410,
        # df=30 -> 43.773.  The approximation must land within 1%.
        for df, true in ((20, 31.410), (30, 43.773)):
            assert abs(chi2_critical(df) - true) / true < 0.01


class TestDiffRecords:
    def test_outcome_deltas_and_rates(self):
        diff = diff_records(
            _record("a", {"masked": 30, "sdc": 10}),
            _record("b", {"masked": 20, "sdc": 10, "crash": 10}),
        )
        assert diff["runs"]["a"]["trials"] == 40
        assert diff["runs"]["b"]["trials"] == 40
        crash = diff["outcomes"]["crash"]
        assert crash["count_a"] == 0 and crash["count_b"] == 10
        assert crash["rate_delta"] == 0.25
        masked = diff["outcomes"]["masked"]
        assert masked["rate_a"] == 0.75 and masked["rate_b"] == 0.5

    def test_counters_report_changed_only(self):
        diff = diff_records(
            _record("a", {"masked": 1},
                    counters={"runtime.fault.retries": 2,
                              "runtime.cache.hits": 5}),
            _record("b", {"masked": 1},
                    counters={"runtime.fault.retries": 6,
                              "runtime.cache.hits": 5}),
        )
        assert set(diff["counters"]) == {"runtime.fault.retries"}
        assert diff["counters"]["runtime.fault.retries"]["delta"] == 4

    def test_config_diff_marks_absent_keys(self):
        diff = diff_records(
            _record("a", {"masked": 1}, config={"engine": "batched",
                                                "trials": 64}),
            _record("b", {"masked": 1}, config={"engine": "reference",
                                                "jobs": 2}),
        )
        assert diff["config"]["engine"] == ("batched", "reference")
        assert diff["config"]["trials"] == (64, "<absent>")
        assert diff["config"]["jobs"] == ("<absent>", 2)

    def test_layer_time_deltas(self):
        diff = diff_records(
            _record("a", {"masked": 1}, elapsed=1.0),
            _record("b", {"masked": 1}, elapsed=3.0),
        )
        assert diff["layers"]["runtime"]["delta_s"] == 2.0


class TestRenderDiff:
    def test_render_has_every_section(self):
        text = render_diff(diff_records(
            _record("a", {"masked": 90, "sdc": 10},
                    counters={"runtime.fault.retries": 1},
                    config={"engine": "batched"}),
            _record("b", {"masked": 10, "sdc": 90},
                    counters={"runtime.fault.retries": 3},
                    config={"engine": "reference"}),
        ))
        assert "== run diff: a (A) vs b (B) ==" in text
        assert "== outcome deltas ==" in text
        assert "DIFFERENT outcome mixes" in text
        assert "== per-layer time deltas ==" in text
        assert "== counter deltas (changed only) ==" in text
        assert "== config diff ==" in text

    def test_identical_runs_render_quietly(self):
        record = _record("a", {"masked": 50, "sdc": 50})
        text = render_diff(diff_records(record, _record("b", {"masked": 50,
                                                              "sdc": 50})))
        assert "no significant outcome shift" in text
        assert "(identical configs)" in text
