"""Property-based tests (hypothesis) on core invariants."""

import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ngrams
from repro.core.calendars import easter_sunday, is_weekend
from repro.core.similarity import cosine_similarity, rank_of, top_k
from repro.core.tfidf import TfidfModel, l2_normalize_rows
from repro.eval.metrics import pr_curve
from repro.forums.models import DAY
from repro.synth.rng import zipf_weights
from repro.textproc import patterns
from repro.textproc.lemmatizer import lemmatize_word
from repro.textproc.tokenizer import (
    count_words,
    distinct_word_ratio,
    word_tokens,
)

# -- strategies -------------------------------------------------------------

text_strategy = st.text(
    alphabet=string.ascii_letters + string.digits + " .,!?:;'\"-@#\n",
    max_size=400)

word_strategy = st.text(alphabet=string.ascii_lowercase, min_size=1,
                        max_size=15)


# -- tokenizer --------------------------------------------------------------

class TestTokenizerProperties:
    @given(text_strategy)
    def test_count_matches_word_tokens(self, text):
        assert count_words(text) == len(word_tokens(text))

    @given(text_strategy)
    def test_distinct_ratio_in_unit_interval(self, text):
        assert 0.0 <= distinct_word_ratio(text) <= 1.0

    @given(text_strategy)
    def test_tokens_are_substrings(self, text):
        from repro.textproc.tokenizer import iter_tokens

        for token in iter_tokens(text):
            assert token.text in text

    @given(text_strategy)
    def test_tokenization_deterministic(self, text):
        from repro.textproc.tokenizer import tokenize

        assert tokenize(text) == tokenize(text)


# -- lemmatizer -------------------------------------------------------------

class TestLemmatizerProperties:
    @given(word_strategy)
    def test_lemma_nonempty(self, word):
        assert lemmatize_word(word)

    @given(word_strategy)
    def test_lemma_idempotent(self, word):
        once = lemmatize_word(word)
        assert lemmatize_word(once) == once

    @given(word_strategy)
    def test_lemma_never_longer_by_much(self, word):
        # the only growth is a restored silent 'e'
        assert len(lemmatize_word(word)) <= len(word) + 1


# -- patterns ---------------------------------------------------------------

class TestPatternProperties:
    @given(text_strategy)
    def test_collapse_whitespace_no_runs(self, text):
        out = patterns.collapse_whitespace(text)
        assert "  " not in out
        assert out == out.strip()

    @given(text_strategy)
    def test_mask_emails_removes_all(self, text):
        out = patterns.mask_emails(text)
        assert patterns.EMAIL_RE.search(out.replace(
            patterns.EMAIL_TAG, " ")) is None

    @given(text_strategy, st.integers(min_value=1, max_value=50))
    def test_strip_long_words_bound(self, text, limit):
        out = patterns.strip_long_words(text, limit)
        assert all(len(w) <= limit for w in out.split())


# -- ngrams -----------------------------------------------------------------

class TestNgramProperties:
    @given(st.text(alphabet=string.ascii_lowercase + " ", max_size=80),
           st.integers(min_value=1, max_value=5))
    def test_char_counts_match_counter(self, text, order):
        codes = ngrams.char_ngram_codes(text, orders=(order,))
        unique, counts = ngrams.count_codes(codes)
        naive = Counter(text[i:i + order]
                        for i in range(len(text) - order + 1))
        decoded = {ngrams.decode_char_code(int(c)): int(n)
                   for c, n in zip(unique, counts)}
        assert decoded == {k: v for k, v in naive.items()}

    @given(st.lists(word_strategy, max_size=40))
    def test_word_occurrences_total(self, tokens):
        vocab = ngrams.WordVocab()
        codes = ngrams.word_ngram_codes(tokens, vocab, orders=(1, 2))
        expected = len(tokens) + max(0, len(tokens) - 1)
        assert codes.size == expected

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=9)), max_size=30))
    def test_merge_preserves_total(self, pairs):
        profiles = []
        for code, count in pairs:
            profiles.append(ngrams.CodeCounts(
                np.array([code], dtype=np.uint64),
                np.array([count], dtype=np.int64)))
        # A budget of 101 selects every code in 0..100.
        _, _, _, counts = ngrams.select_and_count(profiles, 101)
        assert int(counts.sum()) == sum(c for _, c in pairs)

    @given(st.integers(min_value=0, max_value=50))
    def test_select_top_bounded(self, budget):
        corpus = ngrams.CodeCounts(
            np.arange(20, dtype=np.uint64),
            np.arange(1, 21, dtype=np.int64))
        selected, _, _, _ = ngrams.select_and_count([corpus], budget)
        assert selected.size == min(budget, 20)
        assert np.all(np.diff(selected.astype(np.int64)) > 0)


# -- tfidf / similarity -----------------------------------------------------

class TestLinearAlgebraProperties:
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_l2_rows_unit_or_zero(self, rows, cols, seed):
        from scipy import sparse

        rng = np.random.default_rng(seed)
        dense = rng.random((rows, cols)) * (rng.random((rows, cols))
                                            > 0.5)
        out = l2_normalize_rows(sparse.csr_matrix(dense))
        norms = np.sqrt(np.asarray(
            out.multiply(out).sum(axis=1))).ravel()
        for norm in norms:
            assert norm == pytest.approx(1.0) or norm == 0.0

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_cosine_bounded_and_symmetric(self, n, m, seed):
        from scipy import sparse

        rng = np.random.default_rng(seed)
        a = sparse.csr_matrix(rng.random((n, m)))
        sims = cosine_similarity(a, a, assume_normalized=False)
        assert np.all(sims <= 1.0 + 1e-9)
        assert np.all(sims >= -1e-9)
        assert np.allclose(sims, sims.T)
        assert np.allclose(np.diag(sims), 1.0)

    @given(st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_top_k_values_descending(self, k, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((3, 25))
        _, values = top_k(scores, k)
        for row in values:
            assert np.all(np.diff(row) <= 1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_rank_of_consistent_with_sort(self, seed):
        rng = np.random.default_rng(seed)
        row = rng.random(20)
        assume(len(np.unique(row)) == 20)
        order = np.argsort(-row)
        for rank, idx in enumerate(order, start=1):
            assert rank_of(row, int(idx)) == rank


# -- metrics ----------------------------------------------------------------

class TestMetricProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1),
                              st.booleans()),
                    min_size=1, max_size=60))
    def test_pr_curve_bounds(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [l for _, l in pairs]
        assume(any(labels))
        curve = pr_curve(scores, labels)
        assert np.all(curve.precisions <= 1.0)
        assert np.all(curve.precisions >= 0.0)
        assert np.all(curve.recalls <= 1.0)
        assert np.all(np.diff(curve.recalls) >= -1e-12)
        assert 0.0 <= curve.auc() <= 1.0 + 1e-9


# -- calendars / rng --------------------------------------------------------

class TestCalendarProperties:
    @given(st.integers(min_value=1900, max_value=2200))
    def test_easter_in_valid_range(self, year):
        date = easter_sunday(year)
        assert (date.month, date.day) >= (3, 22)
        assert (date.month, date.day) <= (4, 25)
        assert date.weekday() == 6  # Sunday

    @given(st.integers(min_value=0, max_value=10_000))
    def test_weekend_period_seven_days(self, day):
        ts = day * DAY + 12 * 3600
        assert is_weekend(ts) == is_weekend(ts + 7 * DAY)


class TestRngProperties:
    @given(st.integers(min_value=1, max_value=500))
    def test_zipf_weights_sum_to_one(self, n):
        assert zipf_weights(n).sum() == pytest.approx(1.0)
