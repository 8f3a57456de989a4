"""Per-document feature-profile caching.

The two-stage linker touches every document many times: stage 1 fits
the reduction feature space over the full known corpus, and stage 2
re-fits a fresh Tf-Idf on each unknown's candidate set — candidate
sets that overlap heavily between unknowns while the underlying
documents never change.  Narayanan et al.'s internet-scale stylometry
(100k authors) hinges on exactly one idea: compute each author's raw
feature profile **once** and reuse it across every query.

:class:`ProfileCache` is that idea for this pipeline.  It owns the
shared :class:`~repro.core.ngrams.WordVocab` and memoizes, per
document id:

* the word 1–3-gram :class:`~repro.core.ngrams.CodeCounts`,
* the character 1–5-gram :class:`~repro.core.ngrams.CodeCounts`,
* the punctuation/digit/special-character frequency vector,
* the (zero-filled when absent) daily-activity row,
* the (zero-filled when absent) reply-graph structure row.

With warm profiles the stage-2 restage is pure numpy work — re-select
top-N codes from cached counts, re-fit Tf-Idf on the candidate slice,
re-normalize — with **zero** re-tokenization.

Everything is observable through ``repro.obs``:
``profile_cache_hits_total`` / ``profile_cache_misses_total`` count
lookups, ``profile_cache_bytes`` gauges resident profile bytes, and
``tokenizations_total`` counts every raw text walk (one per n-gram
encode), which the CI smoke asserts stays at one per document and
family.

The cache is always on.  A profile is a pure function of its document
and the shared vocabulary, so a memoized profile equals a recomputed
one bit for bit (see ``tests/perf/test_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core import ngrams
from repro.obs.metrics import counter, gauge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.documents import AliasDocument

__all__ = ["ProfileCache"]

#: Profile lookups answered from memory.
_HITS = counter("profile_cache_hits_total")
#: Profile lookups that had to (re)compute.
_MISSES = counter("profile_cache_misses_total")
#: Bytes of profile arrays currently resident in the cache.
_BYTES = gauge("profile_cache_bytes")
#: Raw text walks: every word- or char-n-gram encode of a document.
_TOKENIZATIONS = counter("tokenizations_total")


def _nbytes(entry: object) -> int:
    """Bytes of one cached profile: a :class:`CodeCounts` or a row."""
    if isinstance(entry, ngrams.CodeCounts):
        return entry.codes.nbytes + entry.counts.nbytes
    return entry.nbytes


class ProfileCache:
    """Compute-once store of per-document raw feature profiles.

    Parameters
    ----------
    vocab:
        The shared word-interning table.  A private one is created when
        omitted.  Sharing the vocab is what keeps n-gram codes
        comparable across every consumer of the cache.
    """

    def __init__(self, vocab: Optional[ngrams.WordVocab] = None) -> None:
        self.vocab = vocab if vocab is not None else ngrams.WordVocab()
        self._word: Dict[str, ngrams.CodeCounts] = {}
        self._char: Dict[str, ngrams.CodeCounts] = {}
        self._freq: Dict[str, np.ndarray] = {}
        self._activity: Dict[Tuple[str, int], np.ndarray] = {}
        self._structure: Dict[str, np.ndarray] = {}
        self._bytes = 0

    # -- accounting -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of cached profile entries (all families)."""
        return (len(self._word) + len(self._char) + len(self._freq)
                + len(self._activity) + len(self._structure))

    @property
    def nbytes(self) -> int:
        """Approximate bytes held by cached profile arrays."""
        return self._bytes

    def _store(self, family: Dict, key: object, entry: object) -> None:
        """Put *entry* under *key*, counting its bytes in place of
        those of the entry it replaces."""
        replaced = family.get(key)
        if replaced is not None:
            self._bytes -= _nbytes(replaced)
        family[key] = entry
        self._bytes += _nbytes(entry)
        _BYTES.set(self._bytes)

    # -- profiles -------------------------------------------------------------

    def word_profile(self, document: "AliasDocument") -> ngrams.CodeCounts:
        """Word 1–3-gram counts of *document*, computed at most once."""
        profile = self._word.get(document.doc_id)
        if profile is not None:
            _HITS.inc()
            return profile
        _MISSES.inc()
        _TOKENIZATIONS.inc()
        codes = ngrams.word_ngram_codes(document.words, self.vocab)
        profile = ngrams.CodeCounts.from_occurrences(codes)
        self._store(self._word, document.doc_id, profile)
        return profile

    def char_profile(self, document: "AliasDocument") -> ngrams.CodeCounts:
        """Character 1–5-gram counts of *document*, computed at most once."""
        profile = self._char.get(document.doc_id)
        if profile is not None:
            _HITS.inc()
            return profile
        _MISSES.inc()
        _TOKENIZATIONS.inc()
        codes = ngrams.char_ngram_codes(document.text)
        profile = ngrams.CodeCounts.from_occurrences(codes)
        self._store(self._char, document.doc_id, profile)
        return profile

    def freq_features(self, document: "AliasDocument") -> np.ndarray:
        """Frequency features of *document*, computed at most once."""
        features = self._freq.get(document.doc_id)
        if features is not None:
            _HITS.inc()
            return features
        _MISSES.inc()
        # Local import: repro.core.features imports this module.
        from repro.core.features import frequency_features

        features = frequency_features(document.text)
        self._store(self._freq, document.doc_id, features)
        return features

    def activity_row(self, document: "AliasDocument",
                     bins: int) -> np.ndarray:
        """The daily-activity row of *document* as float64.

        Documents without an activity profile get a zero row of *bins*
        entries (their activity contributes nothing to any cosine).
        The returned array is shared — callers must not mutate it
        (every pipeline consumer copies it into a stacked matrix).
        """
        key = (document.doc_id, bins)
        row = self._activity.get(key)
        if row is not None:
            _HITS.inc()
            return row
        _MISSES.inc()
        if document.activity is not None:
            row = np.asarray(document.activity, dtype=np.float64)
        else:
            row = np.zeros(bins, dtype=np.float64)
        self._store(self._activity, key, row)
        return row

    def structure_row(self, document: "AliasDocument") -> np.ndarray:
        """The reply-graph structure row of *document* as float64.

        Documents without a structure vector get a zero row of
        :data:`repro.core.structure.STRUCTURE_DIM` entries.  Like
        :meth:`activity_row` the returned array is shared — callers
        must not mutate it.
        """
        row = self._structure.get(document.doc_id)
        if row is not None:
            _HITS.inc()
            return row
        _MISSES.inc()
        # Local import: repro.core.features imports this module.
        from repro.core.structure import STRUCTURE_DIM

        if document.structure is not None:
            row = np.asarray(document.structure, dtype=np.float64)
        else:
            row = np.zeros(STRUCTURE_DIM, dtype=np.float64)
        self._store(self._structure, document.doc_id, row)
        return row

    # -- persistence ----------------------------------------------------------

    def export_state(self) -> Dict[str, Dict[str, object]]:
        """Pack every cached profile into flat numpy arrays.

        The format is what :mod:`repro.resilience.snapshot` persists:
        per profile family a key list plus concatenated value arrays
        with an ``indptr`` boundary array (CSR-style), so a snapshot
        can store each family as a handful of mmap-able sections
        instead of thousands of tiny arrays.  The vocabulary is *not*
        included — it is shared state serialized by the snapshot
        itself.
        """
        def pack_counts(family: Dict[str, ngrams.CodeCounts],
                        ) -> Dict[str, object]:
            doc_ids = list(family)
            indptr = np.zeros(len(doc_ids) + 1, dtype=np.int64)
            codes_parts: list = []
            counts_parts: list = []
            for i, doc_id in enumerate(doc_ids):
                profile = family[doc_id]
                codes_parts.append(profile.codes)
                counts_parts.append(profile.counts)
                indptr[i + 1] = indptr[i] + len(profile.codes)
            codes = np.concatenate(codes_parts) if codes_parts \
                else np.empty(0, dtype=np.uint64)
            counts = np.concatenate(counts_parts) if counts_parts \
                else np.empty(0, dtype=np.int64)
            return {"keys": doc_ids,
                    "codes": codes.astype(np.uint64, copy=False),
                    "counts": counts.astype(np.int64, copy=False),
                    "indptr": indptr}

        def pack_rows(family: Dict, keys: list) -> Dict[str, object]:
            indptr = np.zeros(len(keys) + 1, dtype=np.int64)
            parts: list = []
            for i, key in enumerate(keys):
                row = family[key]
                parts.append(row)
                indptr[i + 1] = indptr[i] + len(row)
            data = np.concatenate(parts) if parts \
                else np.empty(0, dtype=np.float64)
            return {"data": data.astype(np.float64, copy=False),
                    "indptr": indptr}

        freq_keys = list(self._freq)
        activity_keys = list(self._activity)
        structure_keys = list(self._structure)
        freq = pack_rows(self._freq, freq_keys)
        freq["keys"] = freq_keys
        activity = pack_rows(self._activity, activity_keys)
        activity["keys"] = [[doc_id, int(bins)]
                            for doc_id, bins in activity_keys]
        structure = pack_rows(self._structure, structure_keys)
        structure["keys"] = structure_keys
        return {"word": pack_counts(self._word),
                "char": pack_counts(self._char),
                "freq": freq,
                "activity": activity,
                "structure": structure}

    def import_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Restore profiles packed by :meth:`export_state`.

        Array slices are taken as views, so profiles restored from a
        memory-mapped snapshot stay memory-mapped.  Existing entries
        with the same keys are replaced; byte accounting is updated.
        """
        def unpack_counts(packed: Dict[str, object],
                          target: Dict[str, ngrams.CodeCounts]) -> None:
            indptr = np.asarray(packed["indptr"], dtype=np.int64)
            codes = np.asarray(packed["codes"], dtype=np.uint64)
            counts = np.asarray(packed["counts"], dtype=np.int64)
            for i, doc_id in enumerate(packed["keys"]):
                lo, hi = int(indptr[i]), int(indptr[i + 1])
                self._store(target, str(doc_id), ngrams.CodeCounts(
                    codes=codes[lo:hi], counts=counts[lo:hi]))

        def unpack_rows(packed: Dict[str, object], target: Dict,
                        keys: list) -> None:
            indptr = np.asarray(packed["indptr"], dtype=np.int64)
            data = np.asarray(packed["data"], dtype=np.float64)
            for i, key in enumerate(keys):
                self._store(target, key,
                            data[int(indptr[i]):int(indptr[i + 1])])

        unpack_counts(state["word"], self._word)
        unpack_counts(state["char"], self._char)
        freq = state["freq"]
        unpack_rows(freq, self._freq, [str(k) for k in freq["keys"]])
        activity = state["activity"]
        unpack_rows(activity, self._activity,
                    [(str(doc_id), int(bins))
                     for doc_id, bins in activity["keys"]])
        # Snapshots written before the structure family lack the key.
        structure = state.get("structure")
        if structure is not None:
            unpack_rows(structure, self._structure,
                        [str(k) for k in structure["keys"]])
