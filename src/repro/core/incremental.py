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

from typing import Any, Optional, Sequence

from repro.core.documents import AliasDocument
from repro.core.linker import AliasLinker, check_document
from repro.errors import ConfigurationError, NotFittedError
from repro.obs.metrics import counter
from repro.perf.cache import ProfileCache
from repro.obs.spans import span

#: Known aliases appended through the incremental path.
_ADDED = counter("incremental_added_total")
#: Full refits triggered on incremental linkers.
_REFITS = counter("incremental_refits_total")


class IncrementalLinker(AliasLinker):
    """An :class:`~repro.core.linker.AliasLinker` that accepts new
    known aliases cheaply.

    Parameters
    ----------
    refit_after:
        After this many incrementally added documents, ``stale``
        becomes ``True`` to signal that a full :meth:`refit` is
        advisable (the frozen feature space is drifting away from the
        corpus).
    cache:
        As for :class:`~repro.core.linker.AliasLinker`, except that
        every (re)fit starts from a fresh cache unless a shared
        :class:`~repro.perf.cache.ProfileCache` instance is supplied,
        so :meth:`refit` equals a fresh fit.

    Every other parameter is :class:`~repro.core.linker.AliasLinker`'s.
    """

    def __init__(self, *args: Any, refit_after: int = 100,
                 cache: Optional[ProfileCache] = None,
                 **kwargs: Any) -> None:
        if refit_after < 1:
            raise ConfigurationError(
                f"refit_after must be >= 1, got {refit_after}")
        super().__init__(*args, cache=cache, **kwargs)
        self.refit_after = refit_after
        self._shared_cache = cache is not None
        self._added_since_fit = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def n_known(self) -> int:
        return len(self._known or ())

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
        if not self._shared_cache:
            # Word ids follow interning order; a fresh cache makes a
            # refit intern exactly as a fresh linker's fit would.
            self.cache = ProfileCache()
            self.reducer = self._make_reducer(self.k)
        super().fit(known)
        self._added_since_fit = 0
        return self

    def refit(self) -> "IncrementalLinker":
        """Rebuild the feature space over everything accumulated."""
        if self._known is None:
            raise NotFittedError("IncrementalLinker.fit not called")
        with span("incremental.refit", n_known=len(self._known)):
            self.fit(self._known)
        _REFITS.inc()
        return self

    # -- incremental growth ---------------------------------------------------

    def add_known(self, documents: Sequence[AliasDocument]) -> None:
        """Append new known aliases inside the frozen feature space.

        The new rows are vectorized with the *existing* selection and
        the *existing* Idf, so every prior row of the known matrix is
        bit-preserved and the work is O(added): transform the new
        documents and ``vstack`` their rows.  No re-selection or Idf
        refresh happens until :meth:`refit`.  A rejected batch (a
        malformed document raises :class:`~repro.errors.DatasetError`,
        a duplicate :class:`~repro.errors.ConfigurationError`) leaves
        the index untouched.
        """
        if self._known is None:
            raise NotFittedError("IncrementalLinker.fit not called")
        documents = list(documents)
        if not documents:
            return
        existing = {d.doc_id for d in self._known}
        for document in documents:
            check_document(document)
            if document.doc_id in existing:
                raise ConfigurationError(
                    f"duplicate known alias {document.doc_id!r}")
            existing.add(document.doc_id)
        with span("incremental.add_known", n_added=len(documents),
                  n_known=len(self._known) + len(documents)):
            self.reducer.extend(documents)
            self._known.extend(documents)
        self._added_since_fit += len(documents)
        _ADDED.inc(len(documents))
