"""k-attribution: search-space reduction (Section IV-C).

Authorship attribution against ten thousand candidates is both too slow
and too fragile for one-vs-all classifiers, so the paper relaxes the
problem: instead of naming *the* author, return the k most likely
authors by cosine similarity (k = 10 in the paper), and let the precise
second stage decide among them.

:class:`KAttributor` fits the reduction-stage feature space (Table II,
middle column) on the known aliases and ranks them for each unknown
alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.config import DEFAULT_K, SPACE_REDUCTION_FEATURES, FeatureBudget
from repro.core.documents import AliasDocument
from repro.core.features import FeatureExtractor, FeatureWeights
from repro.core.similarity import cosine_similarity, rank_of
from repro.errors import ConfigurationError, NotFittedError
from repro.perf.blocked import blocked_top_k
from repro.perf.cache import ProfileCache
from repro.obs.metrics import counter
from repro.obs.spans import span

#: Reduction queries answered (one per unknown alias per reduce call).
_QUERIES = counter("kattribution_queries_total")
#: Known aliases discarded by the reduction stage across all queries.
_PRUNED = counter("candidates_pruned_total")


@dataclass(frozen=True)
class Candidates:
    """Reduction output for one unknown alias.

    Attributes
    ----------
    unknown:
        The unknown document.
    documents:
        The k candidate documents, best first.
    scores:
        First-stage cosine similarities aligned with ``documents``.
    """

    unknown: AliasDocument
    documents: Tuple[AliasDocument, ...]
    scores: Tuple[float, ...]

    def contains(self, doc_id: str) -> bool:
        """Whether the candidate set captured *doc_id*."""
        return any(d.doc_id == doc_id for d in self.documents)


class KAttributor:
    """Search-space reduction by cosine ranking.

    Parameters
    ----------
    k:
        Candidate-set size (paper: 10).
    budget:
        Feature budget for this stage (paper: Table II, middle).
    weights:
        Block weights; pass ``weights.without_activity()`` to reproduce
        the text-only rows of Table III / Fig. 4.
    use_activity:
        Append the daily-activity block.
    use_structure:
        Append the reply-graph/thread-structure block (off by
        default; see :mod:`repro.core.structure`).
    cache:
        Optional shared :class:`~repro.perf.cache.ProfileCache`.
    """

    def __init__(self, k: int = DEFAULT_K,
                 budget: FeatureBudget = SPACE_REDUCTION_FEATURES,
                 weights: FeatureWeights | None = None,
                 use_activity: bool = True,
                 use_structure: bool = False,
                 cache: ProfileCache | None = None) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.extractor = FeatureExtractor(
            budget=budget,
            weights=weights,
            use_activity=use_activity,
            use_structure=use_structure,
            cache=cache,
        )
        self._known: Optional[List[AliasDocument]] = None
        self._known_matrix: Optional[sparse.csr_matrix] = None

    @property
    def known_documents(self) -> List[AliasDocument]:
        if self._known is None:
            raise NotFittedError("KAttributor.fit has not been called")
        return self._known

    def fit(self, known: Sequence[AliasDocument]) -> "KAttributor":
        """Index the known aliases (the paper's set Z)."""
        if not known:
            raise ConfigurationError("known corpus must not be empty")
        with span("kattribution.fit", n_known=len(known), k=self.k):
            self._known = list(known)
            self._known_matrix = self.extractor.fit_transform(self._known)
        return self

    def extend(self, documents: Sequence[AliasDocument]) -> None:
        """Append known aliases inside the fitted feature space.

        Transform is row-independent, so stacking the new rows under
        the fitted matrix equals transforming the grown corpus in one
        shot, with the old rows untouched.  The rows and the documents
        are committed together, after the transform succeeded.
        """
        if self._known_matrix is None:
            raise NotFittedError("KAttributor.fit has not been called")
        documents = list(documents)
        rows = self.extractor.transform(documents)
        self._known_matrix = sparse.vstack([self._known_matrix, rows],
                                           format="csr")
        self._known.extend(documents)

    def scores(self, unknowns: Sequence[AliasDocument]) -> np.ndarray:
        """Full similarity matrix ``unknowns x known``."""
        if self._known_matrix is None:
            raise NotFittedError("KAttributor.fit has not been called")
        unknown_matrix = self.extractor.transform(unknowns)
        return cosine_similarity(unknown_matrix, self._known_matrix)

    def reduce(self, unknowns: Sequence[AliasDocument]) -> List[Candidates]:
        """Return the top-k candidate sets for each unknown alias."""
        if self._known_matrix is None:
            raise NotFittedError("KAttributor.fit has not been called")
        with span("kattribution.reduce", n_unknowns=len(unknowns),
                  k=self.k):
            unknown_matrix = self.extractor.transform(unknowns)
            # Score in column blocks so the dense (unknowns x known)
            # matrix never materializes whole; the fold is bit-equal
            # to top_k over the one-shot scores, and a corpus within
            # one block is exactly that one-shot computation.
            indices, values = blocked_top_k(
                unknown_matrix, self._known_matrix, self.k)
            results: List[Candidates] = []
            for row, unknown in enumerate(unknowns):
                docs = tuple(self._known[int(i)] for i in indices[row])
                results.append(Candidates(
                    unknown=unknown,
                    documents=docs,
                    scores=tuple(float(v) for v in values[row]),
                ))
            _QUERIES.inc(len(unknowns))
            _PRUNED.inc(max(0, len(self._known) - self.k)
                        * len(unknowns))
        return results

    def accuracy_at_k(self, unknowns: Sequence[AliasDocument],
                      truth: Dict[str, str],
                      ks: Sequence[int] = (1, DEFAULT_K),
                      ) -> Dict[int, float]:
        """Reduction accuracy at several k values (Table III, Fig. 4).

        Parameters
        ----------
        unknowns:
            Query documents.
        truth:
            ``unknown doc_id -> known doc_id`` ground truth.  Unknowns
            without an entry are skipped.
        ks:
            Candidate-set sizes to evaluate.

        Returns
        -------
        dict
            ``k -> fraction of unknowns whose true author ranked <= k``.
        """
        if self._known is None:
            raise NotFittedError("KAttributor.fit has not been called")
        known_index = {d.doc_id: i for i, d in enumerate(self._known)}
        score_matrix = self.scores(unknowns)
        ranks: List[int] = []
        for row, unknown in enumerate(unknowns):
            target_doc = truth.get(unknown.doc_id)
            if target_doc is None or target_doc not in known_index:
                continue
            ranks.append(rank_of(score_matrix[row],
                                 known_index[target_doc]))
        if not ranks:
            return {k: 0.0 for k in ks}
        rank_array = np.asarray(ranks)
        return {k: float(np.mean(rank_array <= k)) for k in ks}
