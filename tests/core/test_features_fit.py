"""The fused feature fit: one sort per text family.

:func:`repro.core.ngrams.select_and_count` replaces corpus merging, top-N
selection and per-document projection.  These tests pin it, exactly,
against a reference built the old way (corpus totals, a stable
``argsort(-totals)`` tie-break, then :func:`ngrams.project_counts` per
document), and check that :meth:`FeatureExtractor.fit_transform` — which
weights the fit's own count matrix — matches ``fit`` then ``transform``
element for element, costs no more memory and keeps its telemetry.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import FeatureBudget
from repro.core import ngrams
from repro.core.documents import AliasDocument
from repro.core.features import FeatureExtractor
from repro.core.structure import STRUCTURE_DIM
from repro.obs.metrics import get_registry
from repro.obs.spans import (disable_tracing, enable_tracing, get_trace,
                             iter_spans, reset_trace)
from repro.perf.cache import ProfileCache


def _profile(pairs):
    codes = np.array(sorted(pairs), dtype=np.uint64)
    counts = np.array([pairs[c] for c in sorted(pairs)], dtype=np.int64)
    return ngrams.CodeCounts(codes, counts)


def reference(profiles, budget):
    """Corpus totals, stable top-N selection, per-document projection."""
    totals = {}
    for profile in profiles:
        for code, count in zip(profile.codes.tolist(),
                               profile.counts.tolist()):
            totals[code] = totals.get(code, 0) + count
    codes = np.array(sorted(totals), dtype=np.uint64)
    counts = np.array([totals[c] for c in sorted(totals)], dtype=np.int64)
    if budget == 0 or codes.size == 0:
        selected = np.empty(0, dtype=np.uint64)
    elif codes.size <= budget:
        selected = codes
    else:
        order = np.argsort(-counts, kind="stable")
        selected = np.sort(codes[order[:budget]])
    indptr, indices, data = [0], [], []
    for profile in profiles:
        cols, kept = ngrams.project_counts(profile, selected)
        indices.extend(cols.tolist())
        data.extend(kept.tolist())
        indptr.append(len(indices))
    return selected, indptr, indices, data


def assert_matches_reference(profiles, budget):
    selected, indptr, indices, counts = ngrams.select_and_count(
        profiles, budget)
    ref_selected, ref_indptr, ref_indices, ref_counts = reference(
        profiles, budget)
    assert selected.dtype == np.uint64
    assert selected.tolist() == ref_selected.tolist()
    assert indptr.tolist() == ref_indptr
    assert indices.tolist() == ref_indices
    assert counts.tolist() == ref_counts


profile_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=6),
    max_size=12).map(_profile)


class TestSelectAndCount:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(profile_strategy, min_size=1, max_size=8),
           st.integers(min_value=0, max_value=50))
    @example([_profile({}), _profile({1: 2, 3: 1})], 1)
    @example([_profile({1: 2}), _profile({}), _profile({2: 1})], 2)
    @example([_profile({1: 2}), _profile({})], 5)
    def test_matches_reference(self, profiles, budget):
        assert_matches_reference(profiles, budget)

    @pytest.mark.parametrize("empty_at", [0, 1, 2])
    def test_empty_profile_anywhere(self, empty_at):
        profiles = [_profile({1: 2, 4: 1}), _profile({4: 3, 9: 1})]
        profiles.insert(empty_at, _profile({}))
        assert_matches_reference(profiles, 2)
        _, indptr, _, _ = ngrams.select_and_count(profiles, 2)
        assert indptr[empty_at] == indptr[empty_at + 1]

    def test_leading_empty_profiles(self):
        profiles = [_profile({}), _profile({}), _profile({5: 1})]
        _, indptr, indices, _ = ngrams.select_and_count(profiles, 3)
        assert indptr.tolist() == [0, 0, 0, 1]
        assert indices.tolist() == [0]

    def test_ties_at_the_budget_cut(self):
        # Totals 5, 3, 3, 3: the cut at 2 falls inside the tie, which
        # breaks toward the smallest code.
        profiles = [_profile({10: 5, 7: 1, 3: 2}),
                    _profile({7: 2, 3: 1, 12: 3})]
        assert_matches_reference(profiles, 2)
        selected, _, _, _ = ngrams.select_and_count(profiles, 2)
        assert selected.tolist() == [3, 10]

    def test_zero_budget(self):
        profiles = [_profile({1: 1}), _profile({2: 4})]
        selected, indptr, indices, counts = ngrams.select_and_count(
            profiles, 0)
        assert selected.size == indices.size == counts.size == 0
        assert indptr.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("budget", [3, 4, 100])
    def test_budget_covers_every_code(self, budget):
        profiles = [_profile({1: 1, 5: 2}), _profile({5: 1, 8: 7})]
        assert_matches_reference(profiles, budget)
        selected, _, _, _ = ngrams.select_and_count(profiles, budget)
        assert selected.tolist() == [1, 5, 8]

    def test_one_document(self):
        profiles = [_profile({2: 1, 6: 3, 9: 2})]
        assert_matches_reference(profiles, 2)
        _, indptr, indices, counts = ngrams.select_and_count(profiles, 2)
        assert indptr.tolist() == [0, 2]
        assert indices.tolist() == [0, 1]
        assert counts.tolist() == [3, 2]

    def test_no_documents(self):
        selected, indptr, indices, _ = ngrams.select_and_count([], 5)
        assert selected.size == indices.size == 0
        assert indptr.tolist() == [0]


# -- fit_transform ----------------------------------------------------------

WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
         "kilo lima mike november oscar papa quebec romeo sierra tango "
         "uniform victor whiskey xray yankee zulu").split()


def make_corpus(n_documents, seed):
    """Random documents over a small vocabulary (deterministic)."""
    rng = np.random.default_rng(seed)
    documents = []
    for i in range(n_documents):
        words = tuple(rng.choice(WORDS, size=int(rng.integers(0, 60))))
        punctuation = "".join(rng.choice(list(".,!?#1"), size=3))
        activity = structure = None
        if i % 3:
            activity = rng.random(24)
            structure = rng.random(STRUCTURE_DIM)
        documents.append(AliasDocument(
            doc_id=f"d{i}", alias=f"d{i}", forum="f",
            text=" ".join(words) + " " + punctuation, words=words,
            timestamps=(), activity=activity, structure=structure))
    return documents


def _extractor(cache, **kwargs):
    budget = FeatureBudget(word_ngrams=40, char_ngrams=120)
    return FeatureExtractor(budget, cache=cache, **kwargs)


class TestFitTransform:
    @pytest.mark.parametrize("use_activity,use_structure", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_equals_fit_then_transform(self, use_activity, use_structure):
        documents = make_corpus(40, seed=1)
        cache = ProfileCache()
        kwargs = dict(use_activity=use_activity,
                      use_structure=use_structure)
        fused = _extractor(cache, **kwargs).fit_transform(documents)
        split = _extractor(cache, **kwargs).fit(documents) \
            .transform(documents)
        assert fused.shape == split.shape
        assert np.array_equal(fused.indptr, split.indptr)
        assert np.array_equal(fused.indices, split.indices)
        assert np.array_equal(fused.data, split.data)

    def test_nothing_stays_referenced(self):
        extractor = _extractor(ProfileCache())
        extractor.fit_transform(make_corpus(10, seed=3))
        matrices = [v for v in vars(extractor).values()
                    if hasattr(v, "nnz")]
        assert matrices == []

    def test_peak_memory_no_higher_than_fit_then_transform(self):
        # The default budget keeps every n-gram of this corpus, so the
        # weighting phase, not the fit's sort, sets the peak.
        documents = make_corpus(300, seed=4)
        cache = ProfileCache()

        def extractor():
            return FeatureExtractor(FeatureBudget(), cache=cache)

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Warm both paths: profiles cached, lazy imports done.
        extractor().fit_transform(documents)
        extractor().fit(documents).transform(documents)
        fused = traced_peak(lambda: extractor().fit_transform(documents))
        split = traced_peak(
            lambda: extractor().fit(documents).transform(documents))
        # tracemalloc also counts a few hundred bytes of interpreter
        # bookkeeping that vary run to run; one more count matrix alive
        # would cost 12 bytes per stored count.
        slack = 1024
        assert extractor().fit_transform(documents).nnz * 12 > 100 * slack
        assert fused <= split + slack

    def test_telemetry(self):
        documents = make_corpus(12, seed=5)
        extractor = _extractor(ProfileCache())
        registry = get_registry()
        before = registry.snapshot()
        reset_trace()
        enable_tracing()
        try:
            extractor.fit_transform(documents)
            trace = get_trace()
        finally:
            disable_tracing()
            reset_trace()
        after = registry.snapshot()

        def delta(name):
            return (after.get(name, {}).get("value", 0)
                    - before.get(name, {}).get("value", 0))

        assert delta("documents_vectorized_total") == len(documents)
        assert delta("feature_fits_total") == 1
        names = [node["name"] for root in trace["spans"]
                 for node in iter_spans(root)]
        assert names.count("features.fit") == 1
        assert names.count("features.transform") == 1
