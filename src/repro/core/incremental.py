"""Incremental linking: grow the known-alias index without refitting.

A deployment that monitors forums does not re-scrape the world every
night; new aliases trickle in.  Refitting the full pipeline per new
alias is wasteful — feature *selection* barely moves when one document
joins a corpus of hundreds — so :class:`IncrementalLinker` freezes the
selected n-gram space at the first fit and only vectorizes new
documents inside that frozen space (frozen selection *and* frozen Idf),
appending their rows to the known matrix.

Freezing the Idf alongside the selection is what makes the append
cheap: every existing row keeps its exact feature values, so an
:meth:`add_known` is O(added) transform work plus one row append,
never an O(corpus) re-transform.  This is an
approximation twice over: genuinely novel n-grams introduced by new
aliases are invisible, and document frequencies lag the grown corpus,
until :meth:`refit` is called.  The approximation error is measurable
(see ``tests/core/test_incremental.py``) and a ``staleness`` counter
tells callers when a refit is due.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from scipy import sparse

from repro.config import (
    DEFAULT_K,
    FINAL_FEATURES,
    PAPER_THRESHOLD,
    SPACE_REDUCTION_FEATURES,
    FeatureBudget,
)
from repro.core.documents import AliasDocument
from repro.core.features import FeatureWeights
from repro.core.linker import AliasLinker, LinkResult
from repro.errors import ConfigurationError, NotFittedError
from repro.obs.metrics import counter
from repro.perf.cache import ProfileCache
from repro.obs.spans import span
from repro.resilience.degrade import CircuitBreaker, DeadlineBudget

#: Known aliases appended through the incremental path.
_ADDED = counter("incremental_added_total")
#: Full refits triggered on incremental linkers.
_REFITS = counter("incremental_refits_total")


class IncrementalLinker:
    """An :class:`~repro.core.linker.AliasLinker` that accepts new
    known aliases cheaply.

    Parameters
    ----------
    refit_after:
        After this many incrementally added documents, ``stale``
        becomes ``True`` to signal that a full :meth:`refit` is
        advisable (the frozen feature space is drifting away from the
        corpus).
    workers / cache / block_size:
        Forwarded to every underlying
        :class:`~repro.core.linker.AliasLinker` (see there); a refit
        builds a fresh cache unless a shared
        :class:`~repro.perf.cache.ProfileCache` instance is supplied.
    """

    def __init__(self, k: int = DEFAULT_K,
                 threshold: float = PAPER_THRESHOLD,
                 reduction_budget: FeatureBudget = SPACE_REDUCTION_FEATURES,
                 final_budget: FeatureBudget = FINAL_FEATURES,
                 weights: FeatureWeights | None = None,
                 use_activity: bool = True,
                 use_structure: bool = False,
                 refit_after: int = 100,
                 workers: Optional[int] = None,
                 cache: Union[bool, ProfileCache] = True,
                 block_size: Optional[int] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        if refit_after < 1:
            raise ConfigurationError(
                f"refit_after must be >= 1, got {refit_after}")
        if k < 1:
            raise ConfigurationError(
                f"k must be a positive integer, got {k}")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in [0, 1], got {threshold}")
        self._make_linker = lambda: AliasLinker(
            k=k, threshold=threshold,
            reduction_budget=reduction_budget,
            final_budget=final_budget,
            weights=weights, use_activity=use_activity,
            use_structure=use_structure,
            workers=workers, cache=cache, block_size=block_size,
            breaker=breaker)
        self.refit_after = refit_after
        self._linker: Optional[AliasLinker] = None
        self._known: List[AliasDocument] = []
        self._added_since_fit = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def n_known(self) -> int:
        return len(self._known)

    @property
    def added_since_fit(self) -> int:
        """Documents appended since the last full (re)fit."""
        return self._added_since_fit

    @property
    def stale(self) -> bool:
        """Whether enough documents accumulated to warrant a refit."""
        return self._added_since_fit >= self.refit_after

    def fit(self, known: Sequence[AliasDocument]) -> "IncrementalLinker":
        """Full fit on the initial corpus."""
        if not known:
            raise ConfigurationError("known corpus must not be empty")
        self._known = list(known)
        self._linker = self._make_linker()
        self._linker.fit(self._known)
        self._added_since_fit = 0
        return self

    def refit(self) -> "IncrementalLinker":
        """Rebuild the feature space over everything accumulated."""
        if not self._known:
            raise NotFittedError("IncrementalLinker.fit not called")
        with span("incremental.refit", n_known=len(self._known)):
            self._linker = self._make_linker()
            self._linker.fit(self._known)
        _REFITS.inc()
        self._added_since_fit = 0
        return self

    # -- incremental growth ---------------------------------------------------

    def add_known(self, documents: Sequence[AliasDocument]) -> None:
        """Append new known aliases inside the frozen feature space.

        The new rows are vectorized with the *existing* selection and
        the *existing* Idf, so every prior row of the known matrix is
        bit-preserved and the work is O(added): transform the new
        documents and ``vstack`` their rows.  No re-selection or Idf
        refresh happens until :meth:`refit`.
        """
        if self._linker is None:
            raise NotFittedError("IncrementalLinker.fit not called")
        documents = list(documents)
        if not documents:
            return
        existing = {d.doc_id for d in self._known}
        for document in documents:
            if document.doc_id in existing:
                raise ConfigurationError(
                    f"duplicate known alias {document.doc_id!r}")
            existing.add(document.doc_id)
        self._known.extend(documents)
        self._added_since_fit += len(documents)
        _ADDED.inc(len(documents))
        with span("incremental.add_known", n_added=len(documents),
                  n_known=len(self._known)):
            reducer = self._linker.reducer
            # Transform is row-independent, so stacking the new rows
            # under the fitted matrix equals transforming the grown
            # corpus in one shot, with the old rows untouched.
            new_rows = reducer.extractor.transform(documents)
            grown = sparse.vstack(
                [reducer._known_matrix, new_rows], format="csr")
            reducer._known = self._known
            reducer._known_matrix = grown
            self._linker._known = self._known
            # Invalidate any persistent restage pool: forked workers
            # hold the pre-growth memory image.
            self._linker._state_version += 1

    # -- querying --------------------------------------------------------------

    def link(self, unknowns: Sequence[AliasDocument],
             checkpoint: Optional[object] = None,
             resume: bool = False,
             budget: Optional[DeadlineBudget] = None) -> LinkResult:
        """Link unknowns against everything known so far.

        *checkpoint* / *resume* / *budget* and the quarantine semantics
        are those of :meth:`repro.core.linker.AliasLinker.link`.
        """
        if self._linker is None:
            raise NotFittedError("IncrementalLinker.fit not called")
        return self._linker.link(list(unknowns), checkpoint=checkpoint,
                                 resume=resume, budget=budget)
