"""The two baselines of Section IV-F.

**Standard Baseline** — character space-free 4-grams with cosine
similarity: "the standard baseline in literature for our task".  The
text is stripped of whitespace, 4-grams are counted, vectors are
L2-normalized raw counts (no Idf, no candidate re-extraction), and the
best-scoring known alias is the output pair.  In the paper this is the
fastest and by far the worst method (AUC 0.1).

**Koppel Baseline** — Koppel, Schler & Argamon, "Authorship attribution
in the wild" (LREC 2011): repeatedly score with a random 40% of the
features; a candidate earns a point each time it is the most similar;
after 100 repetitions the normalized point count is the match score.
Robust but two orders of magnitude more similarity computations — in
the paper it is the slowest method (AUC 0.49 vs 0.88 for the two-stage
pipeline).

Both baselines expose the same ``fit``/``link`` surface as
:class:`~repro.core.linker.AliasLinker` so the comparison bench can
treat the three methods uniformly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core import ngrams
from repro.core.documents import AliasDocument
from repro.core.features import (FeatureExtractor, counts_matrix,
                                 fit_counts_matrix)
from repro.core.linker import LinkResult, Match
from repro.core.similarity import cosine_similarity
from repro.core.tfidf import l2_normalize_rows
from repro.config import SPACE_REDUCTION_FEATURES, FeatureBudget
from repro.errors import ConfigurationError, NotFittedError


def _space_free_profile(document: AliasDocument) -> ngrams.CodeCounts:
    """Character 4-gram counts of the document with whitespace removed."""
    squeezed = "".join(document.text.split())
    codes = ngrams.char_ngram_codes(squeezed, orders=(4,))
    return ngrams.CodeCounts.from_occurrences(codes)


class StandardBaseline:
    """Space-free character 4-grams + cosine similarity.

    Parameters
    ----------
    max_features:
        Cap on the 4-gram vocabulary (most frequent kept).  ``None``
        keeps every 4-gram seen in the known corpus.
    """

    def __init__(self, max_features: Optional[int] = None,
                 threshold: float = 0.0) -> None:
        self.max_features = max_features
        self.threshold = threshold
        self._selected: Optional[np.ndarray] = None
        self._known: Optional[List[AliasDocument]] = None
        self._matrix: Optional[sparse.csr_matrix] = None

    def fit(self, known: Sequence[AliasDocument]) -> "StandardBaseline":
        if not known:
            raise ConfigurationError("known corpus must not be empty")
        self._known = list(known)
        profiles = [_space_free_profile(d) for d in self._known]
        # Uncapped: no corpus has more distinct 4-grams than profile
        # entries, so this budget keeps them all.
        budget = (self.max_features if self.max_features is not None
                  else sum(p.codes.size for p in profiles))
        self._selected, counts = fit_counts_matrix(profiles, budget)
        self._matrix = l2_normalize_rows(counts, copy=False)
        return self

    def link(self, unknowns: Sequence[AliasDocument]) -> LinkResult:
        """Best-candidate matches by raw 4-gram cosine."""
        if self._matrix is None:
            raise NotFittedError("StandardBaseline.fit not called")
        profiles = [_space_free_profile(d) for d in unknowns]
        unknown_matrix = l2_normalize_rows(
            counts_matrix(profiles, self._selected), copy=False)
        scores = cosine_similarity(unknown_matrix, self._matrix)
        matches: List[Match] = []
        candidate_scores: Dict[str, List[Tuple[str, float]]] = {}
        for row, unknown in enumerate(unknowns):
            best = int(np.argmax(scores[row]))
            best_score = float(scores[row, best])
            matches.append(Match(
                unknown_id=unknown.doc_id,
                candidate_id=self._known[best].doc_id,
                score=best_score,
                accepted=best_score >= self.threshold,
                first_stage_score=best_score,
            ))
            candidate_scores[unknown.doc_id] = [
                (self._known[best].doc_id, best_score)]
        return LinkResult(matches=matches,
                          candidate_scores=candidate_scores)


class KoppelBaseline:
    """Random-feature-subset voting (Koppel et al., 2011).

    Parameters
    ----------
    iterations:
        Number of random subsets (paper: 100).
    feature_fraction:
        Fraction of features kept per iteration (paper: 40%).
    budget:
        Feature budget for the underlying text space; the reduction
        budget of Table II is used so the comparison with the two-stage
        pipeline is apples-to-apples.
    seed:
        Seed of the subset sampler (results are deterministic given it).
    min_votes:
        Acceptance threshold on the normalized vote share.
    """

    def __init__(self, iterations: int = 100,
                 feature_fraction: float = 0.4,
                 budget: FeatureBudget = SPACE_REDUCTION_FEATURES,
                 use_activity: bool = False,
                 seed: int = 0,
                 min_votes: float = 0.0) -> None:
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not 0.0 < feature_fraction <= 1.0:
            raise ConfigurationError(
                "feature_fraction must be in (0, 1]")
        self.iterations = iterations
        self.feature_fraction = feature_fraction
        self.budget = budget
        self.use_activity = use_activity
        self.seed = seed
        self.min_votes = min_votes
        self._extractor: Optional[FeatureExtractor] = None
        self._known: Optional[List[AliasDocument]] = None
        self._matrix: Optional[sparse.csr_matrix] = None

    def fit(self, known: Sequence[AliasDocument]) -> "KoppelBaseline":
        if not known:
            raise ConfigurationError("known corpus must not be empty")
        self._known = list(known)
        self._extractor = FeatureExtractor(
            budget=self.budget,
            use_activity=self.use_activity,
        )
        self._matrix = self._extractor.fit_transform(self._known)
        return self

    def link(self, unknowns: Sequence[AliasDocument]) -> LinkResult:
        """Vote over random feature subsets; scores are vote shares."""
        if self._matrix is None or self._extractor is None:
            raise NotFittedError("KoppelBaseline.fit not called")
        unknown_matrix = self._extractor.transform(unknowns)
        n_features = self._matrix.shape[1]
        n_keep = max(1, int(round(n_features * self.feature_fraction)))
        rng = np.random.default_rng(self.seed)
        votes = np.zeros((len(unknowns), len(self._known)),
                         dtype=np.int64)
        known_csc = sparse.csc_matrix(self._matrix)
        unknown_csc = sparse.csc_matrix(unknown_matrix)
        for _ in range(self.iterations):
            columns = rng.choice(n_features, size=n_keep, replace=False)
            columns.sort()
            known_sub = sparse.csr_matrix(known_csc[:, columns])
            unknown_sub = sparse.csr_matrix(unknown_csc[:, columns])
            scores = cosine_similarity(unknown_sub, known_sub,
                                       assume_normalized=False)
            winners = np.argmax(scores, axis=1)
            votes[np.arange(len(unknowns)), winners] += 1
        shares = votes / float(self.iterations)
        matches: List[Match] = []
        candidate_scores: Dict[str, List[Tuple[str, float]]] = {}
        for row, unknown in enumerate(unknowns):
            best = int(np.argmax(shares[row]))
            share = float(shares[row, best])
            matches.append(Match(
                unknown_id=unknown.doc_id,
                candidate_id=self._known[best].doc_id,
                score=share,
                accepted=share >= self.min_votes,
                first_stage_score=share,
            ))
            nonzero = np.flatnonzero(shares[row])
            candidate_scores[unknown.doc_id] = [
                (self._known[int(i)].doc_id, float(shares[row, i]))
                for i in nonzero
            ]
        return LinkResult(matches=matches,
                          candidate_scores=candidate_scores)
