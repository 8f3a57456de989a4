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

from typing import Any, Dict, List, Optional, Sequence

from repro.config import DEFAULT_BATCH_SIZE, DEFAULT_K
from repro.core.documents import AliasDocument
from repro.core.kattribution import Candidates
from repro.core.linker import AliasLinker, LinkResult
from repro.errors import ConfigurationError
from repro.obs.logging import get_logger
from repro.obs.metrics import SIZE_BUCKETS, counter, histogram
from repro.obs.spans import span

log = get_logger(__name__)

#: Reduction rounds executed across all batched runs.
_ROUNDS = counter("batch_rounds_total")
#: Candidate-pool sizes entering each reduction round.
_POOL_SIZE = histogram("batch_pool_size", buckets=SIZE_BUCKETS)


class BatchedLinker(AliasLinker):
    """The iterative batched variant of :class:`AliasLinker`.

    Only stage 1 differs (:meth:`_reduce`): no global index is ever
    fitted; each unknown's k candidates come from pooled per-batch
    top-k rounds.  Validation, checkpointing, the restage and
    quarantine are :class:`AliasLinker`'s.

    Parameters
    ----------
    batch_size:
        *B*: the largest number of known aliases processed at once.
    k:
        Candidate-set size inside each batch (paper: 10).

    Every other parameter is :class:`AliasLinker`'s; stage 1 always
    runs, so ``use_reduction=False`` is rejected.
    """

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE,
                 k: int = DEFAULT_K, **kwargs: Any) -> None:
        if batch_size < 2:
            raise ConfigurationError(
                f"batch_size must be >= 2, got {batch_size}")
        if k >= batch_size:
            raise ConfigurationError(
                f"k ({k}) must be smaller than batch_size ({batch_size})")
        if not kwargs.get("use_reduction", True):
            raise ConfigurationError(
                "BatchedLinker always runs stage 1; use_reduction=False "
                "is not supported")
        super().__init__(k=k, **kwargs)
        self.batch_size = batch_size

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
                reducer = self._make_reducer(min(self.k, len(batch)))
                reducer.fit(batch)
                for i, candidates in enumerate(reducer.reduce(unknowns)):
                    survivors[i].extend(candidates.documents)
        return survivors

    def _reduce(self, pending: Sequence[AliasDocument],
                ) -> List[Candidates]:
        """Stage 1 by pooled per-batch rounds.

        Round 1 is shared: every unknown faces the same batches of the
        known set.  Later rounds shrink each unknown's private pool
        until at most *B* candidates remain; the top-k of a reducer
        fitted on that final pool are the unknown's candidates and
        stage-1 scores.
        """
        pools = self._reduce_pool(self._known, pending)
        reduced: List[Candidates] = []
        for unknown, pool in zip(pending, pools):
            while len(pool) > self.batch_size:
                pool = self._reduce_pool(pool, [unknown])[0]
            reducer = self._make_reducer(min(self.k, len(pool)))
            reduced.extend(reducer.fit(pool).reduce([unknown]))
        return reduced

    def _fingerprint(self) -> Dict[str, Any]:
        """Run configuration pinned into checkpoint files."""
        return dict(super()._fingerprint(), algo="batched-linker",
                    batch_size=self.batch_size)

    def link(self, unknowns: Sequence[AliasDocument],
             checkpoint: Optional[Any] = None,
             resume: bool = False) -> LinkResult:
        """Run the batched pipeline for a set of unknown aliases.

        Arguments, quarantine and checkpoint semantics are those of
        :meth:`AliasLinker.link`.
        """
        unknowns = list(unknowns)
        with span("batch.link", n_unknowns=len(unknowns),
                  n_known=len(self._known or ()),
                  batch_size=self.batch_size):
            result = super().link(unknowns, checkpoint=checkpoint,
                                  resume=resume)
        log.info("batch.link", n_unknowns=len(unknowns),
                 n_known=len(self._known), batch_size=self.batch_size,
                 accepted=len(result.accepted()),
                 skipped=len(result.skipped))
        return result
