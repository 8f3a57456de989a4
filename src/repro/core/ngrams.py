"""Fast n-gram counting with integer-coded grams.

Counting word 1–3-grams and character 1–5-grams per user with Python
``Counter`` objects is the textbook approach — and orders of magnitude
too slow for corpora with thousands of 1,500-word aliases.  This module
packs every n-gram into a single ``uint64`` code:

* characters are Latin-1 bytes (the polishing pipeline strips emoji and
  non-English text, so forum messages are effectively Latin-1); a
  5-gram is five bytes plus a 4-bit order tag,
* words are interned into a shared :class:`WordVocab` (18 bits per word
  id, three ids plus the order and kind tags).

Per-document counting then reduces to a vectorized sliding-window
encode followed by ``numpy.unique`` — about two orders of magnitude
faster than hashing strings — and per-corpus aggregation, top-N
selection and sparse-matrix construction all come from one sort of the
corpus's integer codes.

Codes are unambiguous: equal codes always mean the same n-gram, and the
original gram can be decoded back for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Bits reserved per word id; three ids (a word 3-gram) must fit below
#: the kind bit (59), so 18 bits each: vocabularies cap at 262,144
#: distinct words — ample for forum corpora after polishing.
_WORD_BITS = 18
_WORD_CAP = 1 << _WORD_BITS

#: Bits for the order tag (stored in the top nibble of the code).
_ORDER_SHIFT = 60

#: Word codes set this bit so they can never collide with char codes
#: even if profiles of both kinds are merged by mistake.
_WORD_KIND_BIT = np.uint64(1) << np.uint64(59)

#: n-gram orders used by the pipeline (Table II).
WORD_ORDERS = (1, 2, 3)
CHAR_ORDERS = (1, 2, 3, 4, 5)


class WordVocab:
    """A shared word-interning table.

    Word ids are assigned on first sight and never change, so codes
    computed at different times remain comparable.  The vocabulary is
    capped at 2**21 entries to keep three ids inside a ``uint64``.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._words: List[str] = []

    def __len__(self) -> int:
        return len(self._words)

    def intern(self, word: str) -> int:
        """Return the id of *word*, assigning a new one if needed."""
        word_id = self._ids.get(word)
        if word_id is None:
            word_id = len(self._words)
            if word_id >= _WORD_CAP:
                raise ConfigurationError(
                    f"word vocabulary exceeded {_WORD_CAP} entries")
            self._ids[word] = word_id
            self._words.append(word)
        return word_id

    def encode(self, words: Sequence[str]) -> np.ndarray:
        """Intern a token sequence into an id array."""
        intern = self.intern
        return np.fromiter((intern(w) for w in words),
                           dtype=np.uint64, count=len(words))

    def word(self, word_id: int) -> str:
        """The word behind an id (for decoding)."""
        return self._words[word_id]


def _sliding_codes(ids: np.ndarray, order: int, bits: int) -> np.ndarray:
    """Pack consecutive runs of *order* ids into single codes."""
    n = len(ids) - order + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    codes = np.zeros(n, dtype=np.uint64)
    for j in range(order):
        codes |= ids[j:j + n] << np.uint64(bits * (order - 1 - j))
    codes |= np.uint64(order) << np.uint64(_ORDER_SHIFT)
    return codes


def encode_text_chars(text: str) -> np.ndarray:
    """Latin-1 byte ids of *text* (unencodable chars become ``?``)."""
    raw = text.encode("latin-1", "replace")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.uint64)


def char_ngram_codes(text: str,
                     orders: Iterable[int] = CHAR_ORDERS) -> np.ndarray:
    """All character n-gram codes of *text* (one entry per occurrence)."""
    ids = encode_text_chars(text)
    parts = [_sliding_codes(ids, order, 8) for order in orders]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(parts)


def word_ngram_codes(tokens: Sequence[str], vocab: WordVocab,
                     orders: Iterable[int] = WORD_ORDERS) -> np.ndarray:
    """All word n-gram codes of a token sequence."""
    ids = vocab.encode(tokens)
    parts = [_sliding_codes(ids, order, _WORD_BITS) | _WORD_KIND_BIT
             for order in orders]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(parts)


def count_codes(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse an occurrence array into (sorted unique codes, counts)."""
    if codes.size == 0:
        return (np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int64))
    return np.unique(codes, return_counts=True)


@dataclass(frozen=True)
class CodeCounts:
    """A document's n-gram profile: sorted codes with their counts."""

    codes: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.codes.shape != self.counts.shape:
            raise ConfigurationError("codes/counts shape mismatch")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_occurrences(cls, codes: np.ndarray) -> "CodeCounts":
        unique, counts = count_codes(codes)
        return cls(codes=unique, counts=counts)


def select_and_count(profiles: Sequence[CodeCounts], budget: int,
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """Select a corpus's top-*budget* codes and count them per document.

    Returns ``(selected, indptr, indices, counts)``: the selected codes
    sorted ascending, and the documents-by-selected count matrix in CSR
    form (row *i* is ``indices[indptr[i]:indptr[i + 1]]`` with
    ``counts`` alongside).  The *budget* codes with the highest corpus
    totals are selected, ties broken by code value; all codes are
    selected when there are at most *budget* of them.

    One sort of every code occurrence in the corpus yields everything:
    the runs of equal codes give the corpus totals, and scattering each
    run's selected column (or -1) back through the sort order gives
    every occurrence its column without a per-document
    :func:`numpy.searchsorted`.  Profiles are sorted by code, so each
    row comes out in the order :func:`project_counts` would give it.
    """
    if budget < 0:
        raise ConfigurationError("budget must be >= 0")
    offsets = np.cumsum([0] + [p.codes.size for p in profiles])
    if budget == 0 or offsets[-1] == 0:
        return (np.empty(0, dtype=np.uint64), np.zeros_like(offsets),
                np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64))
    all_codes = np.concatenate([p.codes for p in profiles])
    # Ties in this sort only feed integer sums, so it need not be stable.
    order = np.argsort(all_codes)
    sorted_codes = all_codes[order]
    del all_codes  # every temporary here is corpus-sized: free early
    boundaries = np.empty(len(sorted_codes), dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    unique = sorted_codes[starts]
    del sorted_codes
    all_counts = np.concatenate([p.counts for p in profiles])
    if unique.size <= budget:
        selected = unique
        column = np.arange(unique.size, dtype=np.int32)
    else:
        totals = np.add.reduceat(all_counts[order], starts)
        # A stable sort on -total over code order breaks ties by code.
        top = np.sort(np.argsort(-totals, kind="stable")[:budget])
        selected = unique[top]
        column = np.full(unique.size, -1, dtype=np.int32)
        column[top] = np.arange(budget, dtype=np.int32)
    run_lengths = np.diff(np.append(starts, len(order)))
    columns = np.empty(len(order), dtype=np.int32)
    columns[order] = np.repeat(column, run_lengths)
    del order
    keep = columns >= 0
    # The kept occurrences before each document's first one.
    indptr = np.searchsorted(np.flatnonzero(keep), offsets)
    return selected, indptr, columns[keep], all_counts[keep]


def project_counts(profile: CodeCounts,
                   selected: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Project a document profile onto a selected code set.

    Returns ``(column_indices, counts)`` for the codes of *profile*
    present in *selected* (which must be sorted ascending).  Documents
    a fit saw get their rows from :func:`select_and_count` instead.
    """
    if profile.codes.size == 0 or selected.size == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64))
    positions = np.searchsorted(selected, profile.codes)
    positions = np.minimum(positions, len(selected) - 1)
    hits = selected[positions] == profile.codes
    return positions[hits].astype(np.int64), profile.counts[hits]


def decode_char_code(code: int) -> str:
    """Recover the character n-gram behind a char code."""
    order = code >> _ORDER_SHIFT
    chars = []
    for j in range(int(order)):
        byte = (code >> (8 * (int(order) - 1 - j))) & 0xFF
        chars.append(chr(byte))
    return "".join(chars)


def decode_word_code(code: int, vocab: WordVocab) -> str:
    """Recover the word n-gram behind a word code."""
    code = int(code) & ~int(_WORD_KIND_BIT)
    order = code >> _ORDER_SHIFT
    mask = _WORD_CAP - 1
    words = []
    for j in range(int(order)):
        word_id = (code >> (_WORD_BITS * (int(order) - 1 - j))) & mask
        words.append(vocab.word(int(word_id)))
    return " ".join(words)
