"""Tests for fault-injection campaigns, vulnerability, and FI acceleration."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.arch import FaultInjector, FIAccelerationStudy, Outcome
from repro.arch import programs as P
from repro.arch.vulnerability import (
    element_features,
    masked_by_design,
    vulnerability_table,
    vulnerable_labels,
)


@pytest.fixture(scope="module")
def injector():
    return FaultInjector(P.checksum(12))


@pytest.fixture(scope="module")
def campaign(injector):
    return injector.run_campaign(n_trials=400, seed=0)


class TestFaultInjector:
    def test_golden_matches_plain_run(self, injector):
        from repro.arch.cpu import CPU

        prog = P.checksum(12)
        assert injector.golden_output == CPU(prog).run().output(prog.output_range)

    def test_outcomes_partition_trials(self, campaign):
        assert sum(campaign.counts().values()) == 400

    def test_all_outcome_kinds_possible(self, campaign):
        rates = campaign.rates()
        assert rates[Outcome.MASKED] > 0.3  # most faults vanish
        assert rates[Outcome.SDC] > 0.0
        assert rates[Outcome.CRASH] + rates[Outcome.HANG] > 0.0

    def test_r0_injections_always_masked(self, injector, campaign):
        assert masked_by_design(P.checksum(12), campaign) == 1.0

    def test_records_carry_context(self, campaign):
        has_context = [r for r in campaign.records if r.opcode_at_injection]
        assert len(has_context) > 0.9 * len(campaign.records)

    def test_injection_is_deterministic_given_coords(self, injector):
        a = injector.inject_many([(10, "reg3", 5)])
        b = injector.inject_many([(10, "reg3", 5)])
        assert a == b

    def test_high_bit_pc_flip_crashes(self, injector):
        (record,) = injector.inject_many([(5, "pc", 20)])
        assert record.outcome in (Outcome.CRASH, Outcome.HANG)

    def test_element_failure_rates_structure(self, campaign):
        rates = campaign.element_failure_rates()
        assert all(0.0 <= v <= 1.0 for v in rates.values())

    def test_empty_campaign_rates_raise(self, injector):
        from repro.arch.fault_injection import CampaignResult

        empty = CampaignResult(program="x", golden_output=(), golden_cycles=1)
        with pytest.raises(ValueError):
            empty.rates()


class TestRecords:
    def test_record_is_slotted_and_mutable(self, campaign):
        record = dataclasses.replace(campaign.records[0])
        assert not hasattr(record, "__dict__")
        record.outcome = Outcome.SDC
        assert record.outcome is Outcome.SDC
        with pytest.raises(AttributeError):
            record.note = "x"

    def test_inject_many_round_trips_as_columns(self, injector, campaign):
        coords = [(r.cycle, r.element, r.bit) for r in campaign.records]
        records = injector.inject_many(coords)
        data = pickle.dumps(records)
        back = pickle.loads(data)
        assert back == records == campaign.records
        assert pickle.dumps(back) == data
        # Seven field columns, not one pickled object per record.
        _, columns = records.__reduce__()
        assert [len(c) for c in columns] == [len(records)] * 7
        assert b"InjectionRecord" not in data

    def test_mutated_and_mixed_lists_round_trip(self, injector):
        other = FaultInjector(P.fibonacci(8))
        records = injector.inject_many([(3, "reg2", 1), (-1, "pc", 0)])
        records += other.inject_many([(4, "reg1", 7)])
        records[0].outcome = Outcome.HANG
        records[1].program = "renamed"
        back = pickle.loads(pickle.dumps(records))
        assert back == records
        assert {r.program for r in back} == {"renamed", "checksum", "fibonacci"}
        assert back[0].outcome is Outcome.HANG
        assert pickle.loads(pickle.dumps(injector.inject_many([]))) == []

    def test_version_2_entries_re_execute(self, tmp_path, monkeypatch):
        from repro.runtime import ResultCache
        from repro.runtime import cache as cache_module

        injector = FaultInjector(P.fibonacci(8))
        uncached = injector.run_campaign(n_trials=64, seed=4, chunk_size=32)
        # Store both chunks as version-2 frames; version 2 reads them back.
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_VERSION", 2)
            injector.run_campaign(
                n_trials=64, seed=4, chunk_size=32,
                cache=ResultCache(tmp_path),
            )
            v2 = ResultCache(tmp_path)
            injector.run_campaign(n_trials=64, seed=4, chunk_size=32, cache=v2)
            assert v2.stats.hits == 2

        cache = ResultCache(tmp_path)
        result = injector.run_campaign(n_trials=64, seed=4, chunk_size=32,
                                       cache=cache)
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 2, "writes": 2, "errors": 0,
        }
        assert injector.last_run_stats.executed_trials == 64
        assert result.records == uncached.records


class TestVulnerabilityFeatures:
    def test_feature_matrix_shape(self):
        prog = P.dot_product(8)
        elements, X = element_features(prog)
        assert len(elements) == 18
        assert X.shape == (18, 9)

    def test_pc_marked_special(self):
        prog = P.dot_product(8)
        elements, X = element_features(prog)
        pc_row = X[elements.index("pc")]
        assert pc_row[-2] == 1.0

    def test_accumulator_reads_dominate(self):
        # In dot_product r6 is the accumulator: read+written every iteration.
        prog = P.dot_product(8)
        elements, X = element_features(prog)
        r6 = X[elements.index("reg6")]
        r15 = X[elements.index("reg15")]  # unused register
        assert r6[2] > r15[2]  # dynamic reads

    def test_vulnerability_table_and_labels(self):
        injector = FaultInjector(P.fibonacci(8))
        table = vulnerability_table(injector, n_trials_per_element=30, seed=0)
        assert set(table) == set(
            [f"reg{i}" for i in range(16)] + ["pc", "ir"]
        )
        labels, threshold = vulnerable_labels(table)
        assert set(labels.values()) <= {0, 1}
        # PC faults are highly disruptive; unused registers are not.
        assert table["pc"] > table["reg15"]


class TestFIAcceleration:
    @pytest.fixture(scope="class")
    def study(self):
        return FIAccelerationStudy(
            [P.checksum(10), P.fibonacci(8), P.vector_add(6)],
            n_trials_per_element=30,
            seed=0,
        )

    def test_pools_all_elements(self, study):
        assert study.n_samples == 3 * 18

    def test_twenty_percent_training_is_accurate(self, study):
        # The [20] claim: ~20 % of the injection data gives comparable
        # vulnerability prediction accuracy.
        result = study.evaluate(train_fraction=0.2, model="knn")
        assert result.accuracy > 0.8
        assert result.injection_savings == pytest.approx(0.8, abs=0.01)

    def test_svm_also_works(self, study):
        result = study.evaluate(train_fraction=0.3, model="svm")
        assert result.accuracy > 0.7

    def test_accuracy_curve_shape(self, study):
        curve = study.accuracy_vs_fraction(fractions=(0.1, 0.5), model="knn", n_repeats=2)
        assert len(curve) == 2
        assert all(acc > 0.6 for _, acc in curve)

    def test_invalid_fraction_rejected(self, study):
        with pytest.raises(ValueError):
            study.evaluate(train_fraction=1.5)
