"""RAM-bounded batched attribution (Section IV-J).

With tens of thousands of aliases and ~10^5 features, the full
known-aliases matrix may not fit in memory.  The paper's remedy: split
the known aliases into batches of *B* (the largest candidate count the
hardware can handle), run 10-attribution inside each batch, pool the
per-batch survivors, and repeat until at most *B* candidates remain;
then run the usual final stage on that pool.

The paper validates the procedure with B = 100 on the baseline-
comparison dataset and reports precision 91% / recall 81% at the global
threshold — nearly identical to the unbatched run, which is the claim
the batch bench reproduces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_K,
    FINAL_FEATURES,
    PAPER_THRESHOLD,
    SPACE_REDUCTION_FEATURES,
    FeatureBudget,
)
from repro.core.documents import AliasDocument
from repro.core.features import DocumentEncoder, FeatureWeights
from repro.core.kattribution import KAttributor
from repro.core.linker import (
    AliasLinker,
    LinkResult,
    Match,
    SkippedUnknown,
    _assemble,
    _placeholder_id,
    _quarantine,
    check_document,
)
from repro.errors import ConfigurationError, DatasetError, \
    DeadlineExceededError
from repro.obs.logging import get_logger
from repro.perf.blocked import resolve_block_size
from repro.perf.cache import ProfileCache
from repro.perf.parallel import ParallelExecutor, resolve_workers
from repro.resilience.checkpoint import CheckpointStore, open_store
from repro.resilience.degrade import CircuitBreaker, DeadlineBudget
from repro.obs.metrics import SIZE_BUCKETS, counter, histogram
from repro.obs.spans import span

log = get_logger(__name__)

#: Reduction rounds executed across all batched runs.
_ROUNDS = counter("batch_rounds_total")
#: Candidate-pool sizes entering each reduction round.
_POOL_SIZE = histogram("batch_pool_size", buckets=SIZE_BUCKETS)


class BatchedLinker:
    """The iterative batched variant of :class:`AliasLinker`.

    Parameters
    ----------
    batch_size:
        *B*: the largest number of known aliases processed at once.
    k:
        Candidate-set size inside each batch (paper: 10).
    threshold:
        Final acceptance threshold.
    workers:
        Worker processes for the per-unknown pool-shrinking and final
        attribution (``None`` reads ``REPRO_WORKERS``; serial default).
    cache:
        Profile caching policy or a shared
        :class:`~repro.perf.cache.ProfileCache`; with the cache every
        batch of every round reuses the same raw profiles instead of
        re-tokenizing the pool per batch.
    block_size:
        Stage-1 scoring block size forwarded to every reducer;
        ``None`` resolves through ``REPRO_BLOCK_SIZE``.  Resolved (and
        validated) once at construction.
    breaker:
        Optional circuit breaker forwarded to the per-unknown final
        attribution (see :class:`AliasLinker`).
    """

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE,
                 k: int = DEFAULT_K,
                 threshold: float = PAPER_THRESHOLD,
                 reduction_budget: FeatureBudget = SPACE_REDUCTION_FEATURES,
                 final_budget: FeatureBudget = FINAL_FEATURES,
                 weights: FeatureWeights | None = None,
                 use_activity: bool = True,
                 use_structure: bool = False,
                 workers: Optional[int] = None,
                 cache: Union[bool, ProfileCache] = True,
                 block_size: Optional[int] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        if batch_size < 2:
            raise ConfigurationError(
                f"batch_size must be >= 2, got {batch_size}")
        if k < 1:
            raise ConfigurationError(
                f"k must be a positive integer, got {k}")
        if k >= batch_size:
            raise ConfigurationError(
                f"k ({k}) must be smaller than batch_size ({batch_size})")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in [0, 1], got {threshold}")
        self.batch_size = batch_size
        self.k = k
        self.threshold = threshold
        self.reduction_budget = reduction_budget
        self.final_budget = final_budget
        self.weights = weights or FeatureWeights()
        self.use_activity = use_activity
        self.use_structure = use_structure
        self.workers = resolve_workers(workers)
        if isinstance(cache, ProfileCache):
            self.cache = cache
        else:
            self.cache = ProfileCache(enabled=bool(cache))
        self.block_size = resolve_block_size(block_size)
        self.breaker = breaker
        self._known: Optional[List[AliasDocument]] = None

    def fit(self, known: Sequence[AliasDocument]) -> "BatchedLinker":
        """Register the known aliases (no global index is built)."""
        if not known:
            raise ConfigurationError("known corpus must not be empty")
        self._known = list(known)
        return self

    def _reduce_pool(self, pool: Sequence[AliasDocument],
                     unknowns: Sequence[AliasDocument],
                     ) -> List[List[AliasDocument]]:
        """One round: batch the pool, keep the top-k of each batch.

        Returns the surviving candidate list for every unknown.
        """
        _ROUNDS.inc()
        _POOL_SIZE.observe(len(pool))
        with span("batch.round", pool_size=len(pool),
                  n_unknowns=len(unknowns)):
            survivors: List[List[AliasDocument]] = [[] for _ in unknowns]
            for start in range(0, len(pool), self.batch_size):
                batch = list(pool[start:start + self.batch_size])
                reducer = KAttributor(
                    k=min(self.k, len(batch)),
                    budget=self.reduction_budget,
                    weights=self.weights,
                    use_activity=self.use_activity,
                    use_structure=self.use_structure,
                    # Shared cache: every batch of every round reuses
                    # the same raw profiles (one tokenization per doc).
                    encoder=DocumentEncoder(cache=self.cache),
                    block_size=self.block_size,
                )
                reducer.fit(batch)
                for i, candidates in enumerate(reducer.reduce(unknowns)):
                    survivors[i].extend(candidates.documents)
        return survivors

    def _fingerprint(self) -> Dict[str, object]:
        """Run configuration pinned into checkpoint files."""
        return {"algo": "batched-linker",
                "n_known": len(self._known or ()),
                "k": self.k,
                "threshold": self.threshold,
                "batch_size": self.batch_size}

    def _shared_round(self, pending: Sequence[AliasDocument],
                      skipped: Dict[str, SkippedUnknown],
                      store: Optional[CheckpointStore],
                      ) -> List[Tuple[AliasDocument,
                                      List[AliasDocument]]]:
        """Round 1 with per-document error isolation.

        Normally one pass batches the full known set against every
        pending unknown at once; if that raises, each unknown is
        retried alone so only the bad ones are quarantined.
        """
        if not pending:
            return []
        try:
            pools = self._reduce_pool(self._known, pending)
            return list(zip(pending, pools))
        except Exception:
            pairs: List[Tuple[AliasDocument, List[AliasDocument]]] = []
            for unknown in pending:
                try:
                    pairs.append(
                        (unknown,
                         self._reduce_pool(self._known, [unknown])[0]))
                except Exception as exc:
                    _quarantine(unknown.doc_id,
                                f"search-space reduction failed: {exc}",
                                "reduce", skipped, store)
            return pairs

    def _attribute_task(self, pair: Tuple[AliasDocument,
                                          List[AliasDocument]],
                        budget: Optional[DeadlineBudget] = None,
                        ) -> Tuple[str, Any]:
        """Shrink one unknown's private pool and attribute it.

        A pure function of the fitted state (round 1 warmed the shared
        cache, so no new words are ever interned here), which makes it
        safe to fan across forked workers.  Returns ``("ok", (matches,
        scored))``, ``("skipped", entry)`` (the inner linker already
        counted the quarantine) or ``("error", reason)``.

        With a *budget*, pool shrinking stops once the deadline passes
        and the inner linker takes over the degraded accounting.
        """
        unknown, pool = pair
        try:
            # Subsequent rounds shrink each unknown's private pool.
            while len(pool) > self.batch_size \
                    and not (budget is not None and budget.expired()):
                pool = self._reduce_pool(pool, [unknown])[0]
            linker = AliasLinker(
                k=min(self.k, len(pool)),
                threshold=self.threshold,
                reduction_budget=self.reduction_budget,
                final_budget=self.final_budget,
                weights=self.weights,
                use_activity=self.use_activity,
                use_structure=self.use_structure,
                workers=1,  # never nest pools inside a worker
                cache=self.cache,
                block_size=self.block_size,
                breaker=self.breaker,
            )
            linker.fit(pool)
            result = linker.link([unknown], budget=budget)
        except DeadlineExceededError:
            # Strict budgets (degraded_ok=False) abort the run; they
            # must not be folded into a quarantine record.
            raise
        except Exception as exc:  # noqa: BLE001 - quarantined by caller
            return ("error", f"batched attribution failed: {exc}")
        if result.skipped:
            return ("skipped", result.skipped[0])
        scored = result.candidate_scores.get(unknown.doc_id, [])
        return ("ok", (list(result.matches), scored))

    def link(self, unknowns: Sequence[AliasDocument],
             checkpoint: Optional[object] = None,
             resume: bool = False,
             budget: Optional[DeadlineBudget] = None) -> LinkResult:
        """Run the batched pipeline for a set of unknown aliases.

        Malformed or failing unknowns land in ``LinkResult.skipped``
        instead of aborting the run.  With *checkpoint* set, each
        finished unknown is persisted atomically; *resume* skips the
        unknowns a previous (interrupted) run completed and yields a
        result identical to an uninterrupted run.

        With a *budget* (or a breaker), attribution runs serially so
        the deadline clock sees every call: unknowns whose turn comes
        after the deadline are quarantined with ``stage="deadline"``,
        and the inner per-unknown linker degrades its own stages (see
        :meth:`AliasLinker.link`).
        """
        if self._known is None:
            raise ConfigurationError("BatchedLinker.fit has not been called")
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
        guarded = budget is not None or self.breaker is not None
        with span("batch.link", n_unknowns=len(unknowns),
                  n_known=len(self._known), batch_size=self.batch_size):
            if budget is not None and budget.expired():
                budget.check("reduce")
                for unknown in pending:
                    _quarantine(unknown.doc_id,
                                "deadline budget exhausted before "
                                "search-space reduction",
                                "deadline", skipped, store)
                pending = []
            # Round 1 is shared: every unknown faces the same batches.
            # It runs in the parent, which also warms the shared cache
            # with every document's profile before any fork.
            pairs = self._shared_round(pending, skipped, store)
            if guarded:
                # Serial on purpose: the budget clock and breaker state
                # live in this process and must see every call.
                with span("batch.restage", n_unknowns=len(pairs),
                          workers=1):
                    outcomes = []
                    for p in pairs:
                        if budget is not None and budget.expired():
                            # Not even worth fitting the inner linker:
                            # quarantine without burning post-deadline
                            # time.
                            budget.check("attribute")
                            outcomes.append(("deadline", None))
                            continue
                        outcomes.append(
                            self._attribute_task(p, budget=budget))
            else:
                executor = ParallelExecutor(self.workers)
                with span("batch.restage", n_unknowns=len(pairs),
                          workers=executor.workers):
                    outcomes = executor.map(self._attribute_task, pairs)
            # Checkpoint records happen in the parent, in round-1 order,
            # so any worker count writes the same file.
            for (unknown, _pool), (status, payload) in zip(pairs,
                                                           outcomes):
                if status == "error":
                    _quarantine(unknown.doc_id, payload, "attribute",
                                skipped, store)
                    continue
                if status == "deadline":
                    _quarantine(unknown.doc_id,
                                "deadline budget exhausted before "
                                "attribution", "deadline",
                                skipped, store)
                    continue
                if status == "skipped":
                    # The inner linker already counted and logged the
                    # quarantine; just adopt its verdict.
                    entry = payload
                    skipped[unknown.doc_id] = entry
                    if store is not None:
                        store.record(unknown.doc_id, [], [],
                                     skipped=entry.to_dict())
                    continue
                matches, scored = payload
                results[unknown.doc_id] = (matches, scored)
                if store is not None:
                    store.record(unknown.doc_id, matches, scored)
        final = _assemble(unknowns, results, skipped, store)
        log.info("batch.link", n_unknowns=len(unknowns),
                 n_known=len(self._known), batch_size=self.batch_size,
                 accepted=sum(1 for m in final.matches if m.accepted),
                 skipped=len(final.skipped),
                 degraded=len(final.degraded()))
        return final
