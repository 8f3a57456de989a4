"""Feature extraction: Table II made executable.

For every alias document the pipeline builds one vector made of four
blocks:

* **word n-grams** (orders 1–3), top-N by corpus frequency, Tf-Idf
  weighted;
* **character n-grams** (orders 1–5), top-N by corpus frequency,
  Tf-Idf weighted;
* **frequency features**: the relative frequencies of 11 punctuation
  marks, 10 digits and 21 special characters;
* **daily activity profile**: the 24-bin histogram of Section IV-B
  (optional — ablated in Fig. 4).

Each block is L2-normalized and scaled by a block weight before
concatenation, so the cosine similarity of two full vectors is a convex
combination of the per-block cosine similarities.  The paper
concatenates the blocks without stating a scaling; explicit block
weights make the combination reproducible and sweepable (the Fig. 4
bench ablates the activity block by zeroing its weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.config import FeatureBudget
from repro.core import ngrams
from repro.core.documents import AliasDocument
from repro.core.structure import STRUCTURE_DIM
from repro.core.tfidf import TfidfModel, l2_normalize_rows
from repro.errors import ConfigurationError, NotFittedError
from repro.perf.cache import ProfileCache
from repro.obs.metrics import counter, gauge
from repro.obs.spans import span

#: Size of the most recently fitted text feature space (words + chars).
_VOCAB_SIZE = gauge("encoder_vocab_size")
#: Feature-space fits (each stage-2 rescore fits one).
_FITS = counter("feature_fits_total")
#: Documents vectorized by transform calls.
_TRANSFORMED = counter("documents_vectorized_total")

#: The 11 punctuation marks whose frequencies are features (Table II).
PUNCTUATION_CHARS: Tuple[str, ...] = (
    ".", ",", ":", ";", "!", "?", "'", '"', "(", ")", "-",
)

#: The 10 digit features.
DIGIT_CHARS: Tuple[str, ...] = tuple("0123456789")

#: The 21 special-character features (Table II counts 21).
SPECIAL_CHARS: Tuple[str, ...] = (
    "@", "#", "$", "%", "&", "*", "+", "/", "<", ">", "=",
    "[", "]", "{", "}", "\\", "^", "_", "|", "~", "`",
)

_FREQ_CHARS = PUNCTUATION_CHARS + DIGIT_CHARS + SPECIAL_CHARS
_FREQ_INDEX = {c: i for i, c in enumerate(_FREQ_CHARS)}


@dataclass(frozen=True)
class FeatureWeights:
    """Relative weight of each block in the concatenated vector.

    With every block L2-normalized, the cosine similarity of two full
    vectors equals ``sum(w_i^2 * cos_i) / sum(w_i^2)`` over the blocks
    present — so these weights directly control how much say each block
    has.  ``activity=0`` reproduces the paper's text-only runs.

    The defaults are calibrated on synthetic Reddit alter-egos: the
    activity weight is the largest value that still boosts accuracy at
    small text sizes (the paper's Fig. 4 effect) without drowning the
    text signal at 1,500 words.  The structure weight only matters when
    the extractor's ``use_structure`` flag is on (off by default), so
    the paper configuration never sees the block.
    """

    text: float = 1.0
    frequencies: float = 0.35
    activity: float = 0.20
    structure: float = 0.25

    def __post_init__(self) -> None:
        for name in ("text", "frequencies", "activity", "structure"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} weight must be >= 0")
        if self.text == 0 and self.frequencies == 0 and self.activity == 0:
            raise ConfigurationError("at least one block weight must be > 0")

    def without_activity(self) -> "FeatureWeights":
        """A copy with the activity block disabled (text-only runs)."""
        return FeatureWeights(text=self.text,
                              frequencies=self.frequencies,
                              activity=0.0,
                              structure=self.structure)


def frequency_features(text: str) -> np.ndarray:
    """The 42 punctuation/digit/special-character frequencies of *text*."""
    counts = np.zeros(len(_FREQ_CHARS), dtype=np.float64)
    total = len(text)
    if total == 0:
        return counts
    for char in text:
        idx = _FREQ_INDEX.get(char)
        if idx is not None:
            counts[idx] += 1.0
    return counts / total


def counts_matrix(profiles: Sequence[ngrams.CodeCounts],
                  selected: np.ndarray) -> sparse.csr_matrix:
    """Stack per-document counts projected onto *selected* into a CSR
    matrix (for documents the fit did not see)."""
    indptr = [0]
    indices: List[np.ndarray] = []
    data: List[np.ndarray] = []
    for profile in profiles:
        cols, counts = ngrams.project_counts(profile, selected)
        indices.append(cols)
        data.append(counts.astype(np.float64))
        indptr.append(indptr[-1] + len(cols))
    if indices:
        indices_arr = np.concatenate(indices)
        data_arr = np.concatenate(data)
    else:
        indices_arr = np.empty(0, dtype=np.int64)
        data_arr = np.empty(0, dtype=np.float64)
    return sparse.csr_matrix(
        (data_arr, indices_arr, np.asarray(indptr, dtype=np.int64)),
        shape=(len(profiles), len(selected)))


def fit_counts_matrix(profiles: Sequence[ngrams.CodeCounts], budget: int,
                      ) -> Tuple[np.ndarray, sparse.csr_matrix]:
    """Select the top-*budget* codes of *profiles* and return them with
    the profiles' count matrix over them (see
    :func:`repro.core.ngrams.select_and_count`)."""
    selected, indptr, indices, counts = ngrams.select_and_count(
        profiles, budget)
    matrix = sparse.csr_matrix(
        (counts.astype(np.float64), indices, indptr),
        shape=(len(profiles), len(selected)))
    return selected, matrix


class FeatureExtractor:
    """Fit a feature space on a corpus, then vectorize documents.

    Parameters
    ----------
    budget:
        How many word/char n-grams to keep (Table II column).
    weights:
        Block weights (see :class:`FeatureWeights`).
    use_activity:
        Append the daily activity profile block.  Documents without a
        profile get a zero block (their activity contributes nothing to
        any cosine).
    use_structure:
        Append the reply-graph/thread-structure block
        (:mod:`repro.core.structure`).  Off by default: the default
        vector is bit-identical to the paper configuration.  Documents
        without a structure vector get a zero block.
    cache:
        Shared :class:`~repro.perf.cache.ProfileCache`; a private one
        is created when omitted.  Pass one cache to several extractors
        (or linkers) to compute each document's profiles once.
    """

    def __init__(self, budget: FeatureBudget,
                 weights: FeatureWeights | None = None,
                 use_activity: bool = True,
                 use_structure: bool = False,
                 cache: ProfileCache | None = None) -> None:
        self.budget = budget
        self.weights = weights or FeatureWeights()
        self.use_activity = use_activity
        self.use_structure = use_structure
        self.cache = cache if cache is not None else ProfileCache()
        self._selected_words: Optional[np.ndarray] = None
        self._selected_chars: Optional[np.ndarray] = None
        self._tfidf: Optional[TfidfModel] = None

    @property
    def is_fitted(self) -> bool:
        return self._tfidf is not None

    def fit(self, documents: Sequence[AliasDocument]) -> "FeatureExtractor":
        """Select the top-N n-grams and learn Tf-Idf weights.

        Following Section IV-I: "we extract the text features from the
        documents associated with the set of known users Z, we rank the
        n-grams by frequency, and then we select the top N".
        """
        self._fit(documents)
        return self

    def _fit(self, documents: Sequence[AliasDocument],
             ) -> sparse.csr_matrix:
        """:meth:`fit`, returning the documents' text count matrix."""
        if not documents:
            raise ConfigurationError("cannot fit on an empty corpus")
        with span("features.fit", n_documents=len(documents)):
            self._selected_words, word_matrix = fit_counts_matrix(
                [self.cache.word_profile(d) for d in documents],
                self.budget.word_ngrams)
            self._selected_chars, char_matrix = fit_counts_matrix(
                [self.cache.char_profile(d) for d in documents],
                self.budget.char_ngrams)
            counts = sparse.csr_matrix(
                sparse.hstack([word_matrix, char_matrix], format="csr"))
            self._tfidf = TfidfModel().fit(counts)
        _FITS.inc()
        _VOCAB_SIZE.set(self._selected_words.size
                        + self._selected_chars.size)
        return counts

    def _text_counts(self, documents: Sequence[AliasDocument],
                     ) -> sparse.csr_matrix:
        word_profiles = [self.cache.word_profile(d) for d in documents]
        char_profiles = [self.cache.char_profile(d) for d in documents]
        word_matrix = counts_matrix(word_profiles, self._selected_words)
        char_matrix = counts_matrix(char_profiles, self._selected_chars)
        return sparse.csr_matrix(
            sparse.hstack([word_matrix, char_matrix], format="csr"))

    def transform(self, documents: Sequence[AliasDocument],
                  ) -> sparse.csr_matrix:
        """Vectorize documents into the fitted feature space."""
        if not self.is_fitted:
            raise NotFittedError("FeatureExtractor.fit has not been called")
        return self._vectorize(documents)

    def _vectorize(self, documents: Sequence[AliasDocument],
                   counts: Optional[sparse.csr_matrix] = None,
                   ) -> sparse.csr_matrix:
        """Vectorize *documents*, Tf-Idf weighting their text count
        matrix *counts* in place (projected here when omitted)."""
        _TRANSFORMED.inc(len(documents))
        with span("features.transform", n_documents=len(documents)):
            if counts is None:
                counts = self._text_counts(documents)
            return self._transform_inner(documents, counts)

    def _transform_inner(self, documents: Sequence[AliasDocument],
                         counts: sparse.csr_matrix) -> sparse.csr_matrix:
        text = self._tfidf.transform(counts, copy=False)
        blocks: List[sparse.spmatrix] = [text * self.weights.text]
        cache = self.cache
        if self.weights.frequencies > 0:
            freq = np.vstack([cache.freq_features(d)
                              for d in documents])
            freq = l2_normalize_rows(sparse.csr_matrix(freq), copy=False)
            blocks.append(freq * self.weights.frequencies)
        if self.use_activity and self.weights.activity > 0:
            activity = np.vstack([
                cache.activity_row(d, self.budget.activity_bins)
                for d in documents
            ])
            activity = l2_normalize_rows(sparse.csr_matrix(activity),
                                         copy=False)
            blocks.append(activity * self.weights.activity)
        if self.use_structure and self.weights.structure > 0:
            structure = np.vstack([cache.structure_row(d)
                                   for d in documents])
            structure = l2_normalize_rows(sparse.csr_matrix(structure),
                                          copy=False)
            blocks.append(structure * self.weights.structure)
        # hstack builds fresh arrays; normalize them in place.
        stacked = sparse.csr_matrix(sparse.hstack(blocks, format="csr"))
        return l2_normalize_rows(stacked, copy=False)

    def fit_transform(self, documents: Sequence[AliasDocument],
                      ) -> sparse.csr_matrix:
        """:meth:`fit` then :meth:`transform` of the same documents,
        weighting the count matrix the fit built instead of projecting
        the documents again."""
        return self._vectorize(documents, self._fit(documents))

    def vocabulary_sizes(self) -> Dict[str, int]:
        """Actual number of selected features per text family."""
        if self._selected_words is None or self._selected_chars is None:
            raise NotFittedError("FeatureExtractor.fit has not been called")
        return {
            "word_ngrams": int(self._selected_words.size),
            "char_ngrams": int(self._selected_chars.size),
            "punctuation": len(PUNCTUATION_CHARS),
            "digits": len(DIGIT_CHARS),
            "special_chars": len(SPECIAL_CHARS),
            "activity_bins": self.budget.activity_bins
            if self.use_activity else 0,
            "structure": STRUCTURE_DIM if self.use_structure else 0,
        }
