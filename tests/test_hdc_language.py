"""Tests for HDC language identification (ref [13])."""

import numpy as np
import pytest

from repro.hdc.language import (
    ALPHABET,
    LanguageHDCClassifier,
    language_identification_study,
    sample_text,
    synthetic_language,
)


class TestSyntheticLanguage:
    def test_transition_rows_are_distributions(self):
        lang = synthetic_language(0)
        rows = lang["transitions"]
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert np.all(rows >= 0)

    def test_different_seeds_different_statistics(self):
        a = synthetic_language(1)
        b = synthetic_language(2)
        assert not np.allclose(a["transitions"], b["transitions"])

    def test_sample_text_alphabet(self):
        lang = synthetic_language(3)
        text = sample_text(lang, 100, np.random.default_rng(0))
        assert len(text) == 100
        assert set(text) <= set(ALPHABET)

    def test_text_reflects_language_statistics(self):
        lang = synthetic_language(4)
        rng = np.random.default_rng(1)
        text = sample_text(lang, 5000, rng)
        # The most likely successor of 'a' per the model should dominate
        # observed successors of 'a' in a long sample.
        a_idx = ALPHABET.index("a")
        best = ALPHABET[int(np.argmax(lang["transitions"][a_idx]))]
        successors = [text[i + 1] for i, c in enumerate(text[:-1]) if c == "a"]
        if successors:
            values, counts = np.unique(successors, return_counts=True)
            assert values[np.argmax(counts)] == best


class TestLanguageClassifier:
    @pytest.fixture(scope="class")
    def study(self):
        return language_identification_study(
            n_languages=5, n_train=15, n_test=10, text_length=150, dim=2048, seed=0
        )

    def test_high_accuracy(self, study):
        _, _, _, accuracy = study
        assert accuracy > 0.9

    def test_robust_under_errors(self, study):
        clf, texts, labels, _ = study
        noisy = clf.predict(texts, error_rate=0.4, rng=np.random.default_rng(1))
        assert float(np.mean(noisy == labels)) > 0.8

    def test_short_texts_harder(self, study):
        clf, _, _, _ = study
        rng = np.random.default_rng(2)
        lang = synthetic_language(100)  # language 0 of the study
        long_correct = np.mean(
            clf.predict([sample_text(lang, 200, rng) for _ in range(10)]) == 0
        )
        assert long_correct > 0.8

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LanguageHDCClassifier(dim=128).fit(["abc"], [0, 1])

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            LanguageHDCClassifier(dim=128).predict(["abc def"])


def test_timing_report_structure():
    from repro.circuit import (
        SpiceLikeCharacterizer,
        StaticTimingAnalysis,
        build_default_library,
        synthesize_core,
    )

    lib = build_default_library()
    SpiceLikeCharacterizer().characterize_library(lib)
    net = synthesize_core(lib, n_instances=120, seed=0)
    sta = StaticTimingAnalysis(net, lib, clock_period_ps=500.0).run()

    paths = sta.endpoint_paths(4)
    assert len(paths) == 4
    # Sorted by ascending slack, worst first.
    slacks = [p["slack"] for p in paths]
    assert slacks == sorted(slacks)
    assert paths[0]["slack"] == sta.worst_slack
    # Paths are connected chains ending at the endpoint.
    for entry in paths:
        assert entry["path"][-1] == entry["endpoint"]
        for a, b in zip(entry["path"][:-1], entry["path"][1:]):
            assert a in net.get(b).fanin.values()

    report = sta.format_timing_report(n_paths=2)
    assert "Timing report" in report
    assert "Endpoint:" in report
    assert "slack" in report

    with pytest.raises(ValueError):
        sta.endpoint_paths(0)
