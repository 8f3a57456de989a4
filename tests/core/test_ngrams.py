"""Unit tests for the integer-coded n-gram engine (repro.core.ngrams)."""

from collections import Counter

import numpy as np
import pytest

from repro.core import ngrams
from repro.errors import ConfigurationError


class TestWordVocab:
    def test_intern_stable(self):
        vocab = ngrams.WordVocab()
        assert vocab.intern("hello") == vocab.intern("hello")

    def test_distinct_ids(self):
        vocab = ngrams.WordVocab()
        assert vocab.intern("a") != vocab.intern("b")

    def test_word_roundtrip(self):
        vocab = ngrams.WordVocab()
        word_id = vocab.intern("vendor")
        assert vocab.word(word_id) == "vendor"

    def test_len(self):
        vocab = ngrams.WordVocab()
        vocab.encode(["a", "b", "a"])
        assert len(vocab) == 2


class TestCharCodes:
    def test_counts_match_naive(self):
        text = "hello world hello"
        codes = ngrams.char_ngram_codes(text, orders=(2,))
        unique, counts = ngrams.count_codes(codes)
        naive = Counter(text[i:i + 2] for i in range(len(text) - 1))
        decoded = {ngrams.decode_char_code(int(c)): int(n)
                   for c, n in zip(unique, counts)}
        assert decoded == dict(naive)

    def test_all_orders_present(self):
        codes = ngrams.char_ngram_codes("abcdef")
        # orders 1..5 over 6 chars: 6+5+4+3+2 = 20 occurrences
        assert codes.size == 20

    def test_empty_text(self):
        assert ngrams.char_ngram_codes("").size == 0

    def test_non_latin_replaced(self):
        codes = ngrams.char_ngram_codes("日本", orders=(1,))
        decoded = {ngrams.decode_char_code(int(c)) for c in codes}
        assert decoded == {"?"}

    def test_decode_roundtrip(self):
        codes = ngrams.char_ngram_codes("xyz", orders=(3,))
        assert ngrams.decode_char_code(int(codes[0])) == "xyz"


class TestWordCodes:
    def test_counts_match_naive(self):
        tokens = "the cat sat on the mat the cat".split()
        vocab = ngrams.WordVocab()
        codes = ngrams.word_ngram_codes(tokens, vocab, orders=(2,))
        unique, counts = ngrams.count_codes(codes)
        naive = Counter(" ".join(tokens[i:i + 2])
                        for i in range(len(tokens) - 1))
        decoded = {ngrams.decode_word_code(int(c), vocab): int(n)
                   for c, n in zip(unique, counts)}
        assert decoded == dict(naive)

    def test_order_tags_distinguish(self):
        vocab = ngrams.WordVocab()
        codes1 = ngrams.word_ngram_codes(["a"], vocab, orders=(1,))
        codes2 = ngrams.word_ngram_codes(["a", "a"], vocab, orders=(2,))
        assert set(codes1.tolist()).isdisjoint(set(codes2.tolist()))

    def test_word_and_char_codes_never_collide(self):
        vocab = ngrams.WordVocab()
        word_codes = set(ngrams.word_ngram_codes(
            ["a", "b", "c"], vocab).tolist())
        char_codes = set(ngrams.char_ngram_codes("abc").tolist())
        assert word_codes.isdisjoint(char_codes)

    def test_three_gram_fits_uint64(self):
        vocab = ngrams.WordVocab()
        # force large ids
        for i in range(1000):
            vocab.intern(f"w{i}")
        codes = ngrams.word_ngram_codes(["w999", "w998", "w997"],
                                        vocab, orders=(3,))
        assert ngrams.decode_word_code(int(codes[0]), vocab) == \
            "w999 w998 w997"


class TestCodeCounts:
    def test_from_occurrences(self):
        codes = np.array([5, 3, 5, 5], dtype=np.uint64)
        profile = ngrams.CodeCounts.from_occurrences(codes)
        assert profile.codes.tolist() == [3, 5]
        assert profile.counts.tolist() == [1, 3]
        assert profile.total == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ngrams.CodeCounts(np.array([1], dtype=np.uint64),
                              np.array([1, 2]))


class TestMerge:
    def _profile(self, pairs):
        codes = np.array(sorted(pairs), dtype=np.uint64)
        counts = np.array([pairs[c] for c in sorted(pairs)],
                          dtype=np.int64)
        return ngrams.CodeCounts(codes, counts)

    def test_merge_counts(self):
        # Corpus totals are the column sums of the fused count matrix.
        a = self._profile({1: 2, 2: 1})
        b = self._profile({2: 3, 5: 1})
        selected, _, indices, counts = ngrams.select_and_count([a, b], 3)
        assert selected.tolist() == [1, 2, 5]
        totals = np.bincount(indices, weights=counts, minlength=3)
        assert totals.tolist() == [2, 4, 1]

    def test_merge_empty(self):
        selected, indptr, indices, _ = ngrams.select_and_count([], 5)
        assert selected.size == 0
        assert indices.size == 0
        assert indptr.tolist() == [0]

    def test_document_frequencies_binary(self):
        # Document frequencies are the column counts of the matrix.
        a = self._profile({1: 10, 2: 1})
        b = self._profile({1: 99})
        selected, _, indices, _ = ngrams.select_and_count([a, b], 2)
        df = np.bincount(indices, minlength=selected.size)
        assert dict(zip(selected.tolist(), df.tolist())) == {1: 2, 2: 1}


class TestSelectAndProject:
    def _profile(self, pairs):
        codes = np.array(sorted(pairs), dtype=np.uint64)
        counts = np.array([pairs[c] for c in sorted(pairs)],
                          dtype=np.int64)
        return ngrams.CodeCounts(codes, counts)

    @staticmethod
    def _select(corpus, budget):
        return ngrams.select_and_count([corpus], budget)[0]

    def test_select_top_keeps_most_frequent(self):
        corpus = self._profile({1: 5, 2: 50, 3: 10})
        selected = self._select(corpus, 2)
        assert sorted(selected.tolist()) == [2, 3]

    def test_select_top_returns_sorted(self):
        corpus = self._profile({9: 1, 1: 2, 5: 3})
        selected = self._select(corpus, 3)
        assert selected.tolist() == sorted(selected.tolist())

    def test_select_all_when_budget_large(self):
        corpus = self._profile({1: 1, 2: 2})
        assert self._select(corpus, 100).size == 2

    def test_select_deterministic_on_ties(self):
        corpus = self._profile({7: 1, 3: 1, 9: 1})
        a = self._select(corpus, 2).tolist()
        b = self._select(corpus, 2).tolist()
        assert a == b == [3, 7]

    def test_select_zero_budget(self):
        corpus = self._profile({1: 1})
        assert self._select(corpus, 0).size == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            self._select(self._profile({1: 1}), -1)

    def test_project_counts(self):
        profile = self._profile({1: 2, 3: 4, 8: 1})
        selected = np.array([3, 8, 9], dtype=np.uint64)
        cols, counts = ngrams.project_counts(profile, selected)
        assert cols.tolist() == [0, 1]
        assert counts.tolist() == [4, 1]

    def test_project_no_overlap(self):
        profile = self._profile({1: 1})
        selected = np.array([2], dtype=np.uint64)
        cols, counts = ngrams.project_counts(profile, selected)
        assert cols.size == 0

    def test_project_empty_selection(self):
        profile = self._profile({1: 1})
        cols, _ = ngrams.project_counts(
            profile, np.empty(0, dtype=np.uint64))
        assert cols.size == 0
