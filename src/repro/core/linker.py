"""The final two-stage linking algorithm (Section IV-I).

Stage 1 — *search-space reduction*: rank every known alias against the
unknown by cosine similarity over the reduction feature space and keep
the best k (:mod:`repro.core.kattribution`).

Stage 2 — *final attribution*: re-extract features **on the candidate
set only** (top-N selection and Tf-Idf are recomputed over just those k
documents, which changes every vector, including the unknown's), rank
the k candidates by cosine similarity, and accept the best candidate if
its score clears the threshold t (paper: t = 0.4190).

The second stage is what makes the method precise: in a k-document
collection the Idf sharpens dramatically — a feature shared by the
unknown and exactly one candidate becomes decisive — while in the full
corpus it was diluted across thousands of users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import (
    DEFAULT_K,
    FINAL_FEATURES,
    PAPER_THRESHOLD,
    SPACE_REDUCTION_FEATURES,
    FeatureBudget,
)
from repro.core.documents import AliasDocument
from repro.core.features import (
    DocumentEncoder,
    FeatureExtractor,
    FeatureWeights,
)
from repro.core.kattribution import Candidates, KAttributor
from repro.core.similarity import cosine_similarity
from repro.errors import ConfigurationError, DatasetError, NotFittedError
from repro.obs.logging import get_logger
from repro.obs.metrics import SCORE_BUCKETS, SIZE_BUCKETS, counter, \
    histogram
from repro.obs.spans import span
from repro.perf.blocked import resolve_block_size
from repro.perf.cache import ProfileCache
from repro.perf.parallel import ParallelExecutor, resolve_workers
from repro.resilience.checkpoint import CheckpointStore, open_store

log = get_logger(__name__)

#: Unknowns whose best candidate cleared the threshold.
_ACCEPTED = counter("attribution_accepted_total")
#: Unknowns whose best candidate fell below the threshold.
_REJECTED = counter("attribution_rejected_total")
#: Unknowns quarantined instead of linked (malformed or failing).
_SKIPPED = counter("attribution_skipped_total")
#: Distribution of winning second-stage scores.
_BEST_SCORE = histogram("similarity_score", buckets=SCORE_BUCKETS)
#: Candidate-set sizes entering the final stage.
_CANDIDATE_SET = histogram("final_candidate_set_size",
                           buckets=SIZE_BUCKETS)
#: Total candidates rescored by stage 2.
_RESCORED = counter("candidates_rescored_total")


@dataclass(frozen=True)
class Match:
    """One scored pairing of an unknown alias with its best candidate.

    Attributes
    ----------
    unknown_id / candidate_id:
        Document ids of the two aliases.
    score:
        Second-stage cosine similarity.
    accepted:
        Whether ``score >= threshold`` (the pair the algorithm outputs).
    first_stage_score:
        The reduction-stage similarity (diagnostics).
    """

    unknown_id: str
    candidate_id: str
    score: float
    accepted: bool
    first_stage_score: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; the single source of the field list
        for traces, CLI JSON output and eval reporting."""
        return {
            "unknown_id": self.unknown_id,
            "candidate_id": self.candidate_id,
            "score": self.score,
            "accepted": self.accepted,
            "first_stage_score": self.first_stage_score,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Match":
        """Inverse of :meth:`to_dict`."""
        return cls(
            unknown_id=str(data["unknown_id"]),
            candidate_id=str(data["candidate_id"]),
            score=float(data["score"]),
            accepted=bool(data["accepted"]),
            first_stage_score=float(data.get("first_stage_score", 0.0)),
        )


@dataclass(frozen=True)
class SkippedUnknown:
    """One unknown alias quarantined instead of linked.

    A malformed or failing document must not abort a multi-hour batch
    run (graceful degradation); it is set aside with enough context to
    audit — or re-feed — it later.

    Attributes
    ----------
    unknown_id:
        Document id (or a positional placeholder when the document has
        none).
    reason:
        Human-readable account of what was wrong.
    stage:
        Where it failed: ``"validate"``, ``"reduce"`` or
        ``"attribute"``.
    """

    unknown_id: str
    reason: str
    stage: str = "validate"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {"unknown_id": self.unknown_id, "reason": self.reason,
                "stage": self.stage}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SkippedUnknown":
        """Inverse of :meth:`to_dict`."""
        return cls(unknown_id=str(data["unknown_id"]),
                   reason=str(data.get("reason", "")),
                   stage=str(data.get("stage", "validate")))


@dataclass(frozen=True)
class LinkResult:
    """Everything a linking run produced.

    ``matches`` holds one entry per unknown alias (its best candidate,
    accepted or not); ``candidate_scores`` holds the second-stage score
    of *every* candidate of every unknown, which the evaluation uses to
    draw precision-recall curves without re-running the pipeline;
    ``skipped`` lists the unknowns quarantined instead of linked, so
    ``len(matches) + len(skipped)`` always equals the number of
    unknowns submitted.
    """

    matches: List[Match]
    candidate_scores: Dict[str, List[Tuple[str, float]]]
    skipped: List[SkippedUnknown] = field(default_factory=list)

    def accepted(self) -> List[Match]:
        """Only the pairs the algorithm actually outputs."""
        return [m for m in self.matches if m.accepted]

    def degraded(self) -> List[Match]:
        """Always empty: linking has no degraded answers.

        Kept only for ``benchmarks/e2e/workload.py``, which counts
        ``len(result.degraded())`` as failures; the next benchmark
        change drops that call and this method together.
        """
        return []

    def all_scored_pairs(self) -> Iterator[Tuple[str, str, float]]:
        """Yield ``(unknown_id, candidate_id, score)`` for every pair."""
        for unknown_id, pairs in self.candidate_scores.items():
            for candidate_id, score in pairs:
                yield unknown_id, candidate_id, score

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (see :meth:`Match.to_dict`)."""
        return {
            "matches": [m.to_dict() for m in self.matches],
            "candidate_scores": {
                unknown_id: [[cid, score] for cid, score in pairs]
                for unknown_id, pairs in self.candidate_scores.items()
            },
            "skipped": [s.to_dict() for s in self.skipped],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LinkResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            matches=[Match.from_dict(m) for m in data.get("matches", [])],
            candidate_scores={
                unknown_id: [(str(cid), float(score))
                             for cid, score in pairs]
                for unknown_id, pairs in
                data.get("candidate_scores", {}).items()
            },
            skipped=[SkippedUnknown.from_dict(s)
                     for s in data.get("skipped", [])],
        )


def check_document(document: Any) -> None:
    """Validate that *document* can safely enter the linking stages.

    Raises :class:`~repro.errors.DatasetError` with a precise reason on
    anything the feature extractors would choke on — the linkers call
    this up front so one bad record is quarantined instead of aborting
    a whole run half-way through stage 1.
    """
    if not isinstance(document, AliasDocument):
        raise DatasetError(
            f"not an AliasDocument: {type(document).__name__}")
    if not isinstance(document.doc_id, str) or not document.doc_id:
        raise DatasetError("document has no doc_id")
    if not isinstance(document.text, str):
        raise DatasetError(
            f"{document.doc_id}: text is "
            f"{type(document.text).__name__}, expected str")
    try:
        words_ok = all(isinstance(w, str) for w in document.words)
    except TypeError:
        words_ok = False
    if not words_ok:
        raise DatasetError(
            f"{document.doc_id}: words must be an iterable of strings")
    if document.activity is not None:
        try:
            activity = np.asarray(document.activity, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DatasetError(
                f"{document.doc_id}: activity profile is not "
                f"numeric") from exc
        if activity.ndim != 1:
            raise DatasetError(
                f"{document.doc_id}: activity profile must be "
                f"1-dimensional, got shape {activity.shape}")
        if not np.all(np.isfinite(activity)):
            raise DatasetError(
                f"{document.doc_id}: activity profile contains "
                f"non-finite values")
    if getattr(document, "structure", None) is not None:
        try:
            structure = np.asarray(document.structure, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DatasetError(
                f"{document.doc_id}: structure profile is not "
                f"numeric") from exc
        if structure.ndim != 1:
            raise DatasetError(
                f"{document.doc_id}: structure profile must be "
                f"1-dimensional, got shape {structure.shape}")
        if not np.all(np.isfinite(structure)):
            raise DatasetError(
                f"{document.doc_id}: structure profile contains "
                f"non-finite values")
    if not document.text and not document.words \
            and document.activity is None:
        raise DatasetError(f"{document.doc_id}: document is empty")


def _placeholder_id(document: Any, position: int) -> str:
    """A stable id for quarantine records of id-less documents."""
    doc_id = getattr(document, "doc_id", None)
    if isinstance(doc_id, str) and doc_id:
        return doc_id
    return f"<unknown #{position}>"


def _quarantine(unknown_id: str, reason: str, stage: str,
                skipped: Dict[str, "SkippedUnknown"],
                store: Optional[CheckpointStore]) -> None:
    """Set one unknown aside (shared by every linker variant)."""
    entry = SkippedUnknown(unknown_id=unknown_id, reason=reason,
                           stage=stage)
    skipped[unknown_id] = entry
    _SKIPPED.inc()
    log.warning("linker.skip", unknown=unknown_id, stage=stage,
                reason=reason)
    if store is not None:
        store.record(unknown_id, [], [], skipped=entry.to_dict())


def _assemble(unknowns: Sequence[Any],
              results: Dict[str, Tuple[List[Match],
                                       List[Tuple[str, float]]]],
              skipped: Dict[str, "SkippedUnknown"],
              store: Optional[CheckpointStore]) -> LinkResult:
    """Build the final :class:`LinkResult` in submission order.

    When a checkpoint store is active, *everything* is read back from
    it (fresh results were recorded there too), so a resumed run and an
    uninterrupted run assemble byte-identical results.
    """
    matches: List[Match] = []
    candidate_scores: Dict[str, List[Tuple[str, float]]] = {}
    skipped_list: List[SkippedUnknown] = []
    for position, unknown in enumerate(unknowns):
        unknown_id = _placeholder_id(unknown, position)
        if unknown_id in skipped:
            skipped_list.append(skipped[unknown_id])
            continue
        if store is not None and unknown_id in store:
            quarantined = store.skipped_for(unknown_id)
            if quarantined is not None:
                skipped_list.append(
                    SkippedUnknown.from_dict(quarantined))
                continue
            matches.extend(store.matches_for(unknown_id))
            candidate_scores[unknown_id] = store.scores_for(unknown_id)
            continue
        entry = results.get(unknown_id)
        if entry is None:  # defensive: should be unreachable
            skipped_list.append(SkippedUnknown(
                unknown_id=unknown_id, reason="no result produced",
                stage="attribute"))
            continue
        unknown_matches, scored = entry
        matches.extend(unknown_matches)
        candidate_scores[unknown_id] = scored
    return LinkResult(matches=matches, candidate_scores=candidate_scores,
                      skipped=skipped_list)


def _restage_chunk_size(n_unknowns: int, workers: int) -> int:
    """Unknowns per restage chunk.

    Large enough that the block-diagonal rescore amortizes its setup
    (and, parallel, that per-item pickling is cheap relative to work),
    small enough that workers load-balance (4 chunks per worker) and
    the dense score block stays bounded (64 rows x 64k columns).
    """
    if n_unknowns <= 0:
        return 1
    per_worker = -(-n_unknowns // max(workers * 4, 1))
    return max(1, min(64, per_worker))


def _restage_chunk_task(linker: "AliasLinker",
                        chunk: Sequence[Candidates],
                        ) -> List[Tuple[str, Any]]:
    """``map_shared`` entry point for one restage chunk.

    Module-level so the persistent pool can pickle the function
    reference; the fitted linker rides along as the fork-shared state
    and only the chunk itself crosses the pipe.
    """
    return linker._stage2_chunk(chunk)


class AliasLinker:
    """The paper's complete algorithm, ready to fit and run.

    Parameters
    ----------
    k:
        Candidate-set size of the reduction stage (paper: 10).
    threshold:
        Acceptance threshold on the second-stage score (paper: 0.4190).
    reduction_budget / final_budget:
        Table II feature budgets for the two stages.
    weights:
        Block weights shared by both stages.
    use_activity:
        Use the daily-activity block (Fig. 4 ablates this).
    use_structure:
        Use the reply-graph/thread-structure block in both stages
        (off by default; see :mod:`repro.core.structure`).
    use_reduction:
        When ``False``, skip stage 1 and score the unknown against
        *every* known alias with the final feature space — the
        "without reduction" rows of Table VI / Fig. 5.
    workers:
        Worker processes for the stage-2 restage; ``None`` reads
        ``REPRO_WORKERS`` and defaults to serial.  Output is
        bit-identical at any worker count.
    cache:
        ``True`` (default) computes every document's raw profiles
        exactly once; ``False`` recomputes on every use (same numbers,
        more work).  Pass a :class:`~repro.perf.cache.ProfileCache`
        instance to share profiles across linkers.
    block_size:
        Known-corpus rows scored per stage-1 block (memory bound);
        ``None`` resolves through ``REPRO_BLOCK_SIZE``.  Resolved once
        at construction; ``self.block_size`` is always a concrete int.
    """

    def __init__(self, k: int = DEFAULT_K,
                 threshold: float = PAPER_THRESHOLD,
                 reduction_budget: FeatureBudget = SPACE_REDUCTION_FEATURES,
                 final_budget: FeatureBudget = FINAL_FEATURES,
                 weights: FeatureWeights | None = None,
                 use_activity: bool = True,
                 use_structure: bool = False,
                 use_reduction: bool = True,
                 workers: Optional[int] = None,
                 cache: Union[bool, ProfileCache] = True,
                 block_size: Optional[int] = None) -> None:
        if k < 1:
            raise ConfigurationError(
                f"k must be a positive integer, got {k}")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in [0, 1], got {threshold}")
        self.k = k
        self.threshold = threshold
        self.reduction_budget = reduction_budget
        self.final_budget = final_budget
        self.weights = weights or FeatureWeights()
        self.use_activity = use_activity
        self.use_structure = use_structure
        self.use_reduction = use_reduction
        # Perf knobs resolve once, here (argument > env > default), so
        # manifests and snapshots read concrete values and a mid-run
        # environment change cannot skew a sweep.
        self.workers = resolve_workers(workers)
        self.block_size = resolve_block_size(block_size)
        if isinstance(cache, ProfileCache):
            self.cache = cache
        else:
            self.cache = ProfileCache(enabled=bool(cache))
        self.encoder = DocumentEncoder(cache=self.cache)
        self.reducer = self._make_reducer(k)
        self._known: Optional[List[AliasDocument]] = None
        #: Bumped on every (re)fit; keys the persistent restage pool so
        #: stale forked state is never reused across fits.
        self._state_version = 0

    def _make_reducer(self, k: int) -> KAttributor:
        """A stage-1 reducer over this linker's reduction space, sharing
        its encoder (so every reducer reuses one set of profiles)."""
        return KAttributor(
            k=k,
            budget=self.reduction_budget,
            weights=self.weights,
            use_activity=self.use_activity,
            use_structure=self.use_structure,
            encoder=self.encoder,
            block_size=self.block_size,
        )

    def fit(self, known: Sequence[AliasDocument]) -> "AliasLinker":
        """Index the known aliases (the paper's set Z)."""
        with span("linker.fit", n_known=len(known)):
            known = list(known)
            self.reducer.fit(known)
            self._known = known
            self._state_version += 1
        log.debug("linker.fit", n_known=len(self._known), k=self.k)
        return self

    # -- stage 2 -------------------------------------------------------------

    def _stage2_vectors(self, unknown: AliasDocument,
                        candidates: Sequence[AliasDocument],
                        ) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """The per-pair candidate-set fit, returning the two stage-2
        matrices (candidates, then the unknown) without scoring them —
        the batched restage folds many pairs into one similarity call.
        """
        extractor = FeatureExtractor(
            budget=self.final_budget,
            weights=self.weights,
            use_activity=self.use_activity,
            use_structure=self.use_structure,
            encoder=self.encoder,
        )
        candidate_matrix = extractor.fit_transform(list(candidates))
        unknown_matrix = extractor.transform([unknown])
        return candidate_matrix, unknown_matrix

    @staticmethod
    def _cosine_blocks(blocks: Sequence[Tuple[sparse.csr_matrix,
                                              sparse.csr_matrix]],
                       ) -> List[np.ndarray]:
        """Cosine score rows for many independent ``(candidates,
        unknown)`` pairs via one block-diagonal sparse product.

        Each pair lives in its own feature space, so the pairs are laid
        out on a block diagonal and multiplied in a single matmul.
        scipy's CSR matmul accumulates every output cell along the
        stored order of the left row's entries; the diagonal layout
        shifts column ids without reordering any row, so row *i* of the
        big product is bit-identical to pair *i*'s own
        ``cosine_similarity`` call.
        """
        if len(blocks) == 1:
            candidate_matrix, unknown_matrix = blocks[0]
            return [cosine_similarity(unknown_matrix,
                                      candidate_matrix)[0]]
        big_unknown = sparse.block_diag(
            [unknown for _, unknown in blocks], format="csr")
        big_candidates = sparse.block_diag(
            [cand for cand, _ in blocks], format="csr")
        scores = cosine_similarity(big_unknown, big_candidates)
        rows: List[np.ndarray] = []
        offset = 0
        for row, (candidate_matrix, _) in enumerate(blocks):
            width = candidate_matrix.shape[0]
            rows.append(scores[row, offset:offset + width])
            offset += width
        return rows

    def rescore(self, unknown: AliasDocument,
                candidates: Sequence[AliasDocument],
                ) -> List[Tuple[str, float]]:
        """Second-stage scores of *candidates* against *unknown*.

        A fresh extractor is fitted on the candidate documents alone:
        "we recompute the Tf-Idf on the documents of these k users ...
        this procedure changes the feature vector of the unknown alias
        too" (Section IV-I).

        The single-pair reference: benchmarks and callers with their
        own candidate sets time or drive the restage with it, and
        :meth:`link`'s chunked restage scores every pair bit-identically
        to it (see :meth:`_cosine_blocks`).
        """
        candidates = list(candidates)
        candidate_matrix, unknown_matrix = self._stage2_vectors(
            unknown, candidates)
        scores = cosine_similarity(unknown_matrix, candidate_matrix)[0]
        return [(doc.doc_id, float(score))
                for doc, score in zip(candidates, scores)]

    def _warm(self, unknowns: Iterable[AliasDocument]) -> None:
        """Intern every unknown's profiles in submission order.

        The restage may run in forked workers whose vocabulary copies
        are frozen at fork time; interning everything in the parent
        first keeps word-id assignment — and therefore n-gram codes and
        tie-breaking — identical across worker counts.  With stage 1
        enabled this is all cache hits (the reduce already touched
        every pending unknown); it only does real work for
        ``use_reduction=False`` runs.  Failing documents are left for
        the restage to quarantine with its usual error message.
        """
        cache = self.encoder.cache
        for unknown in unknowns:
            try:
                self.encoder.word_profile(unknown)
                self.encoder.char_profile(unknown)
                if self.weights.frequencies > 0:
                    self.encoder.freq_features(unknown)
                if self.use_activity and self.weights.activity > 0:
                    cache.activity_row(unknown,
                                       self.final_budget.activity_bins)
                if self.use_structure and self.weights.structure > 0:
                    cache.structure_row(unknown)
            except Exception:  # noqa: BLE001 - requarantined in stage 2
                continue

    def _stage2_chunk(self, chunk: Sequence[Candidates],
                      ) -> List[Tuple[str, Any]]:
        """Restage a chunk of unknowns with one batched similarity.

        Returns one outcome per unknown: ``("ok", (scored, best_id,
        best_score))`` or ``("error", reason)``.

        Error isolation stays per-unknown: a pair whose candidate-set
        fit raises is reported as ``("error", reason)`` without
        dragging down its chunk-mates, whose matrices still enter the
        shared block-diagonal product.
        """
        outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(chunk)
        prepped: List[Tuple[int, sparse.csr_matrix,
                            sparse.csr_matrix]] = []
        for pos, candidates in enumerate(chunk):
            unknown = candidates.unknown
            try:
                with span("linker.stage2", unknown=unknown.doc_id,
                          k=len(candidates.documents)):
                    cand_matrix, unk_matrix = self._stage2_vectors(
                        unknown, candidates.documents)
                prepped.append((pos, cand_matrix, unk_matrix))
            except Exception as exc:  # noqa: BLE001 - quarantined later
                outcomes[pos] = ("error",
                                 f"final attribution failed: {exc}")
        if prepped:
            rows = self._cosine_blocks(
                [(cand, unk) for _, cand, unk in prepped])
            for (pos, _, _), pair_scores in zip(prepped, rows):
                candidates = chunk[pos]
                scored = [(doc.doc_id, float(score))
                          for doc, score in zip(candidates.documents,
                                                pair_scores)]
                best_id, best_score = max(scored,
                                          key=lambda pair: pair[1])
                outcomes[pos] = ("ok", (scored, best_id,
                                        float(best_score)))
        return list(outcomes)

    def _fingerprint(self) -> Dict[str, Any]:
        """Run configuration pinned into checkpoint files."""
        return {"algo": "alias-linker",
                "n_known": len(self._known or ()),
                "k": self.k,
                "threshold": self.threshold}

    def _reduce(self, pending: Sequence[AliasDocument],
                ) -> List[Candidates]:
        """Stage 1 proper: the candidate set of every pending unknown.

        The hook subclasses override to pick candidates differently
        (:class:`~repro.core.batch.BatchedLinker`).
        """
        if not self.use_reduction:
            return [
                Candidates(unknown=u, documents=tuple(self._known),
                           scores=tuple([0.0] * len(self._known)))
                for u in pending
            ]
        return self.reducer.reduce(pending)

    def _reduce_isolated(self, pending: Sequence[AliasDocument],
                         skipped: Dict[str, SkippedUnknown],
                         store: Optional[CheckpointStore],
                         ) -> List[Candidates]:
        """Stage 1 with per-document error isolation.

        The fast path reduces the whole batch at once; if that raises,
        the batch is retried one document at a time so only the
        genuinely bad documents are quarantined.
        """
        if not pending:
            return []
        with span("linker.stage1", k=self.k,
                  reduction=self.use_reduction):
            try:
                return self._reduce(pending)
            except Exception:
                survivors: List[Candidates] = []
                for unknown in pending:
                    try:
                        survivors.extend(
                            self._reduce([unknown]))
                    except Exception as exc:
                        _quarantine(
                            unknown.doc_id,
                            f"search-space reduction failed: {exc}",
                            "reduce", skipped, store)
                return survivors

    def link(self, unknowns: Sequence[AliasDocument],
             checkpoint: Optional[Any] = None,
             resume: bool = False) -> LinkResult:
        """Run the full pipeline for a batch of unknown aliases.

        Malformed or failing unknowns are quarantined into
        ``LinkResult.skipped`` instead of aborting the run.  With
        *checkpoint* set, every finished unknown is persisted
        atomically to that path; *resume* additionally skips the
        unknowns an earlier (interrupted) run already completed, and
        the assembled result is identical to an uninterrupted run.
        """
        if self._known is None:
            raise NotFittedError(
                f"{type(self).__name__}.fit has not been called")
        unknowns = list(unknowns)
        store = open_store(checkpoint, fingerprint=self._fingerprint(),
                           resume=resume)
        skipped: Dict[str, SkippedUnknown] = {}
        results: Dict[str, Tuple[List[Match],
                                 List[Tuple[str, float]]]] = {}
        valid: List[AliasDocument] = []
        for position, unknown in enumerate(unknowns):
            try:
                check_document(unknown)
            except DatasetError as exc:
                _quarantine(_placeholder_id(unknown, position),
                            str(exc), "validate", skipped, store)
                continue
            valid.append(unknown)
        pending = [u for u in valid
                   if store is None or u.doc_id not in store]
        n_accepted = 0
        with span("linker.link", n_unknowns=len(unknowns),
                  n_known=len(self._known)):
            reduced = self._reduce_isolated(pending, skipped, store)
            self._warm(c.unknown for c in reduced)
            executor = ParallelExecutor(self.workers)
            chunk = _restage_chunk_size(len(reduced), executor.workers)
            chunks = [list(reduced[i:i + chunk])
                      for i in range(0, len(reduced), chunk)]
            with span("linker.restage", n_unknowns=len(reduced),
                      workers=executor.workers):
                folded = executor.map_shared(
                    _restage_chunk_task, chunks, state=self,
                    version=self._state_version)
            outcomes = [outcome for part in folded for outcome in part]
            # Match construction, metrics and checkpoint records stay in
            # the parent, in reduced order — a workers=4 run writes the
            # same records in the same order as workers=1.
            for candidates, (status, payload) in zip(reduced, outcomes):
                unknown = candidates.unknown
                if status == "error":
                    _quarantine(unknown.doc_id, payload, "attribute",
                                skipped, store)
                    continue
                scored, best_id, best_score = payload
                _CANDIDATE_SET.observe(len(candidates.documents))
                _RESCORED.inc(len(scored))
                _BEST_SCORE.observe(best_score)
                first_stage = dict(
                    (doc.doc_id, score)
                    for doc, score in zip(candidates.documents,
                                          candidates.scores))
                accepted = best_score >= self.threshold
                if accepted:
                    _ACCEPTED.inc()
                    n_accepted += 1
                else:
                    _REJECTED.inc()
                match = Match(
                    unknown_id=unknown.doc_id,
                    candidate_id=best_id,
                    score=best_score,
                    accepted=accepted,
                    first_stage_score=first_stage.get(best_id, 0.0),
                )
                results[unknown.doc_id] = ([match], scored)
                if store is not None:
                    store.record(unknown.doc_id, [match], scored)
        log.info("linker.link", n_unknowns=len(unknowns),
                 n_known=len(self._known), accepted=n_accepted,
                 skipped=len(skipped), threshold=self.threshold)
        return _assemble(unknowns, results, skipped, store)

    def link_one(self, unknown: AliasDocument) -> Match:
        """Convenience: link a single unknown alias.

        Unlike :meth:`link`, a malformed document raises here — with a
        single unknown there is no batch to protect.
        """
        result = self.link([unknown])
        if result.skipped and not result.matches:
            entry = result.skipped[0]
            raise DatasetError(
                f"{entry.unknown_id}: {entry.reason} "
                f"(stage: {entry.stage})")
        return result.matches[0]
