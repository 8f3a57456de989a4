"""Authorship Verification on top of the attribution pipeline (§II-B).

The paper frames its task as the hard variant of authorship analysis:
*Authorship Verification* — "the task of finding if the author is one
of the candidates and, if it is, determine who among them".  The
k-attribution + threshold machinery already embodies that; this module
gives it an explicit, reusable API:

* :class:`PairVerifier` — is this *specific* pair of documents the same
  author?  (score + calibrated decision);
* :class:`OpenSetAttributor` — who among the known aliases wrote this,
  *if anyone*?  Returns an attribution or an explicit abstention, with
  the decision margin exposed for triage.

Both reuse the linker's second-stage scoring so their thresholds live
on the same scale as the calibrated t of Section IV-E.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import (
    DEFAULT_K,
    FINAL_FEATURES,
    PAPER_THRESHOLD,
    FeatureBudget,
)
from repro.core.documents import AliasDocument
from repro.core.features import FeatureExtractor, FeatureWeights
from repro.core.linker import AliasLinker
from repro.core.similarity import cosine_similarity
from repro.errors import ConfigurationError, NotFittedError


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification query.

    Attributes
    ----------
    same_author:
        The calibrated decision.
    score:
        Second-stage cosine similarity of the pair.
    threshold:
        The threshold the decision used.
    margin:
        ``score - threshold``; positive means accepted, and its
        magnitude is a crude confidence proxy.
    """

    same_author: bool
    score: float
    threshold: float

    @property
    def margin(self) -> float:
        return self.score - self.threshold


class PairVerifier:
    """Verify whether two alias documents share an author.

    The pair is scored inside a *context corpus* (other documents from
    the same population) so the Tf-Idf weighting is meaningful: scoring
    two documents in isolation would make every shared feature look
    rare and inflate the similarity.

    Parameters
    ----------
    threshold:
        Acceptance threshold on the second-stage score.
    context_size:
        How many context documents to include alongside the pair.
    """

    def __init__(self, threshold: float = PAPER_THRESHOLD,
                 context_size: int = DEFAULT_K,
                 budget: FeatureBudget = FINAL_FEATURES,
                 weights: FeatureWeights | None = None,
                 use_activity: bool = True) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        if context_size < 0:
            raise ConfigurationError("context_size must be >= 0")
        self.threshold = threshold
        self.context_size = context_size
        self.budget = budget
        self.weights = weights or FeatureWeights()
        self.use_activity = use_activity
        self._context: List[AliasDocument] = []

    def fit(self, context: Sequence[AliasDocument]) -> "PairVerifier":
        """Provide the population documents used as Idf context."""
        self._context = list(context)
        return self

    def verify(self, doc_a: AliasDocument,
               doc_b: AliasDocument) -> Verdict:
        """Score the pair and decide.

        Works without :meth:`fit` (pure pairwise scoring) but is more
        reliable with a context corpus.
        """
        context = [d for d in self._context
                   if d.doc_id not in (doc_a.doc_id, doc_b.doc_id)]
        context = context[:self.context_size]
        corpus = [doc_b] + context
        extractor = FeatureExtractor(
            budget=self.budget,
            weights=self.weights,
            use_activity=self.use_activity,
        )
        extractor.fit(corpus)
        corpus_matrix = extractor.transform([doc_b])
        query_matrix = extractor.transform([doc_a])
        score = float(
            cosine_similarity(query_matrix, corpus_matrix)[0, 0])
        return Verdict(same_author=score >= self.threshold,
                       score=score, threshold=self.threshold)


@dataclass(frozen=True)
class Attribution:
    """Outcome of an open-set attribution query.

    ``author_id`` is ``None`` when the system abstains (no candidate
    cleared the threshold) — the open-set answer "none of them".
    """

    author_id: Optional[str]
    score: float
    threshold: float
    runner_up_id: Optional[str]
    runner_up_score: float

    @property
    def attributed(self) -> bool:
        return self.author_id is not None

    @property
    def margin_over_runner_up(self) -> float:
        """Gap between the winner and the second-best candidate."""
        return self.score - self.runner_up_score


class OpenSetAttributor:
    """Open-set authorship attribution: name the author or abstain.

    A thin, explicit wrapper over :class:`~repro.core.linker.AliasLinker`
    that exposes the abstention case and the runner-up margin.
    """

    def __init__(self, threshold: float = PAPER_THRESHOLD,
                 k: int = DEFAULT_K,
                 use_activity: bool = True) -> None:
        self._linker = AliasLinker(k=k, threshold=threshold,
                                   use_activity=use_activity)
        self.threshold = threshold

    def fit(self, known: Sequence[AliasDocument]) -> "OpenSetAttributor":
        self._linker.fit(known)
        return self

    def attribute(self, unknown: AliasDocument) -> Attribution:
        """Attribute one unknown document, or abstain."""
        try:
            result = self._linker.link([unknown])
        except NotFittedError:
            raise
        scored = sorted(result.candidate_scores[unknown.doc_id],
                        key=lambda pair: -pair[1])
        best_id, best_score = scored[0]
        runner_id, runner_score = (scored[1] if len(scored) > 1
                                   else (None, 0.0))
        accepted = best_score >= self.threshold
        return Attribution(
            author_id=best_id if accepted else None,
            score=best_score,
            threshold=self.threshold,
            runner_up_id=runner_id,
            runner_up_score=runner_score,
        )

    def attribute_many(self, unknowns: Sequence[AliasDocument],
                       ) -> List[Attribution]:
        """Attribute a batch of unknowns."""
        return [self.attribute(u) for u in unknowns]
