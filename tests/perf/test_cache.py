"""Unit tests for the profile cache (repro.perf.cache)."""

import numpy as np
import pytest

from repro.core import ngrams
from repro.core.documents import AliasDocument
from repro.obs.metrics import get_registry
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


DOC = _doc("a", "the quick brown fox jumps over the lazy dog", 3)
OTHER = _doc("b", "a different document with other words entirely")


def _value(name):
    return get_registry().snapshot().get(name, {}).get("value", 0)


class TestMemoization:
    def test_word_profile_computed_once(self):
        cache = ProfileCache()
        first = cache.word_profile(DOC)
        second = cache.word_profile(DOC)
        assert first is second

    def test_char_profile_computed_once(self):
        cache = ProfileCache()
        assert cache.char_profile(DOC) is cache.char_profile(DOC)

    def test_freq_features_computed_once(self):
        cache = ProfileCache()
        assert cache.freq_features(DOC) is cache.freq_features(DOC)

    def test_activity_row_computed_once(self):
        cache = ProfileCache()
        assert cache.activity_row(DOC, 24) is cache.activity_row(DOC, 24)

    def test_activity_row_keyed_by_bins(self):
        cache = ProfileCache()
        assert cache.activity_row(OTHER, 24).shape == (24,)
        assert cache.activity_row(OTHER, 12).shape == (12,)

    def test_activity_row_zero_filled_when_absent(self):
        cache = ProfileCache()
        row = cache.activity_row(OTHER, 24)
        assert np.all(row == 0.0)

    def test_activity_row_uses_document_profile(self):
        cache = ProfileCache()
        row = cache.activity_row(DOC, 24)
        assert row[3] == 1.0 and row.sum() == 1.0


class TestMetrics:
    def test_hit_and_miss_counters(self):
        cache = ProfileCache()
        misses = _value("profile_cache_misses_total")
        hits = _value("profile_cache_hits_total")
        cache.word_profile(DOC)
        cache.word_profile(DOC)
        assert _value("profile_cache_misses_total") == misses + 1
        assert _value("profile_cache_hits_total") == hits + 1

    def test_tokenizations_counted_per_encode(self):
        cache = ProfileCache()
        before = _value("tokenizations_total")
        cache.word_profile(DOC)
        cache.char_profile(DOC)
        cache.word_profile(DOC)  # hit: no new tokenization
        assert _value("tokenizations_total") == before + 2


class TestEquivalence:
    def test_disabled_cache_same_profiles(self):
        # A cached profile equals one computed without the cache.
        vocab = ngrams.WordVocab()
        cached = ProfileCache(vocab=vocab).word_profile(DOC)
        direct = ngrams.CodeCounts.from_occurrences(
            ngrams.word_ngram_codes(DOC.words, vocab))
        np.testing.assert_array_equal(cached.codes, direct.codes)
        np.testing.assert_array_equal(cached.counts, direct.counts)

    def test_shared_vocab_interning_order(self):
        # Two caches over one vocab must agree on word codes; over two
        # vocabs the codes depend on interning order and may differ.
        vocab = ngrams.WordVocab()
        one = ProfileCache(vocab=vocab)
        two = ProfileCache(vocab=vocab)
        one.word_profile(OTHER)  # interns OTHER's words first
        a = one.word_profile(DOC)
        b = two.word_profile(DOC)
        np.testing.assert_array_equal(a.codes, b.codes)

    def test_shared_vocab_consistent(self):
        cache = ProfileCache()
        a = cache.word_profile(_doc("c", "the cat sat"))
        b = cache.word_profile(_doc("d", "the dog ran"))
        # "the" appears in both docs: codes must intersect
        assert np.intersect1d(a.codes, b.codes).size > 0


class TestAccounting:
    def test_nbytes_grows_per_new_profile(self):
        cache = ProfileCache()
        assert cache.nbytes == 0
        cache.word_profile(DOC)
        cache.char_profile(DOC)
        cache.freq_features(DOC)
        cache.activity_row(DOC, 24)
        grown = cache.nbytes
        assert grown > 0 and len(cache) == 4
        cache.word_profile(DOC)  # a hit stores nothing
        assert cache.nbytes == grown

    def test_reimport_replaces_bytes(self):
        source = ProfileCache()
        for doc in (DOC, OTHER):
            source.word_profile(doc)
            source.char_profile(doc)
            source.freq_features(doc)
            source.activity_row(doc, 24)
            source.structure_row(doc)
        state = source.export_state()
        cache = ProfileCache(vocab=source.vocab)
        cache.import_state(state)
        first = cache.nbytes
        assert first == source.nbytes and len(cache) == len(source)
        cache.import_state(state)
        assert cache.nbytes == first and len(cache) == len(source)
        assert _value("profile_cache_bytes") == first
