"""Unit tests for feature extraction (repro.core.features)."""

import numpy as np
import pytest

from repro.config import FINAL_FEATURES, FeatureBudget
from repro.core.documents import AliasDocument
from repro.core.features import (
    DIGIT_CHARS,
    PUNCTUATION_CHARS,
    SPECIAL_CHARS,
    FeatureExtractor,
    FeatureWeights,
    frequency_features,
)
from repro.errors import ConfigurationError, NotFittedError
from repro.perf.cache import ProfileCache


def _doc(doc_id, text, activity_hour=None):
    words = tuple(w for w in text.lower().split() if w.isalpha())
    activity = None
    if activity_hour is not None:
        activity = np.zeros(24)
        activity[activity_hour] = 1.0
    return AliasDocument(
        doc_id=doc_id, alias=doc_id, forum="f", text=text,
        words=words, timestamps=(), activity=activity)


DOCS = [
    _doc("a", "the quick brown fox jumps over the lazy dog", 3),
    _doc("b", "the slow green turtle walks under the happy dog", 3),
    _doc("c", "completely different vocabulary appears in here", 15),
]


class TestTableIIInventories:
    def test_punctuation_count_is_11(self):
        assert len(PUNCTUATION_CHARS) == 11

    def test_digit_count_is_10(self):
        assert len(DIGIT_CHARS) == 10

    def test_special_count_is_21(self):
        assert len(SPECIAL_CHARS) == 21

    def test_no_overlap_between_inventories(self):
        all_chars = PUNCTUATION_CHARS + DIGIT_CHARS + SPECIAL_CHARS
        assert len(all_chars) == len(set(all_chars)) == 42


class TestFrequencyFeatures:
    def test_counts_normalized_by_length(self):
        features = frequency_features("a.b.")
        dot_index = PUNCTUATION_CHARS.index(".")
        assert features[dot_index] == pytest.approx(2 / 4)

    def test_empty_text(self):
        assert np.allclose(frequency_features(""), 0.0)

    def test_digits_counted(self):
        features = frequency_features("123")
        for digit in "123":
            idx = len(PUNCTUATION_CHARS) + DIGIT_CHARS.index(digit)
            assert features[idx] > 0


class TestFeatureWeights:
    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureWeights(text=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureWeights(text=0, frequencies=0, activity=0)

    def test_without_activity(self):
        weights = FeatureWeights().without_activity()
        assert weights.activity == 0.0


class TestFeatureExtractor:
    def test_transform_before_fit_raises(self):
        extractor = FeatureExtractor(FINAL_FEATURES)
        with pytest.raises(NotFittedError):
            extractor.transform(DOCS)

    def test_fit_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureExtractor(FINAL_FEATURES).fit([])

    def test_rows_unit_norm(self):
        extractor = FeatureExtractor(FINAL_FEATURES)
        matrix = extractor.fit_transform(DOCS)
        norms = np.sqrt(np.asarray(
            matrix.multiply(matrix).sum(axis=1))).ravel()
        assert np.allclose(norms, 1.0)

    def test_similar_docs_score_higher(self):
        from repro.core.similarity import cosine_similarity

        extractor = FeatureExtractor(FINAL_FEATURES,
                                     use_activity=False)
        matrix = extractor.fit_transform(DOCS)
        sims = cosine_similarity(matrix, matrix)
        assert sims[0, 1] > sims[0, 2]

    def test_budget_caps_vocabulary(self):
        budget = FeatureBudget(word_ngrams=5, char_ngrams=7)
        extractor = FeatureExtractor(budget, use_activity=False)
        extractor.fit(DOCS)
        sizes = extractor.vocabulary_sizes()
        assert sizes["word_ngrams"] == 5
        assert sizes["char_ngrams"] == 7

    def test_activity_block_effect(self):
        from repro.core.similarity import cosine_similarity

        with_act = FeatureExtractor(
            FINAL_FEATURES,
            weights=FeatureWeights(activity=2.0)).fit_transform(DOCS)
        sims = cosine_similarity(with_act, with_act)
        # docs a and b share the activity hour, c does not
        assert sims[0, 1] > sims[0, 2]

    def test_doc_without_activity_gets_zero_block(self):
        docs = [DOCS[0], _doc("d", "no activity profile here at all")]
        extractor = FeatureExtractor(FINAL_FEATURES)
        matrix = extractor.fit_transform(docs)
        assert matrix.shape[0] == 2  # no crash, both vectorized

    def test_vocabulary_sizes_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            FeatureExtractor(FINAL_FEATURES).vocabulary_sizes()

    def test_shared_cache_reused(self):
        cache = ProfileCache()
        a = FeatureExtractor(FINAL_FEATURES, cache=cache)
        b = FeatureExtractor(FeatureBudget(word_ngrams=10,
                                           char_ngrams=10),
                             cache=cache)
        a.fit(DOCS)
        cached = len(cache)
        b.fit(DOCS)  # second fit reuses cached profiles
        assert a.cache is b.cache and len(cache) == cached
