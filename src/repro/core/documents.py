"""Alias documents: the unit the attribution pipeline scores.

An :class:`AliasDocument` condenses one alias's polished messages into
the representation every later stage consumes: the normalized text (for
character n-grams and frequency features), the lemmatized word stream
(for word n-grams), the posting timestamps, and the pre-computed daily
activity profile.

Document construction implements the refinement of Section IV-D: sort
messages by length and take the longest first until the word budget
(1,500 by default) is reached; discard aliases below the word floor or
the 30-usable-timestamp floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MIN_TIMESTAMPS, WORDS_PER_ALIAS
from repro.core.activity import try_activity_profile, usable_timestamps
from repro.forums.models import Forum, UserRecord
from repro.textproc.lemmatizer import lemmatize_word
from repro.textproc.tokenizer import _TOKEN_RE, count_words


@dataclass(frozen=True)
class AliasDocument:
    """Everything the pipeline knows about one alias.

    Attributes
    ----------
    doc_id:
        Unique identity, ``<forum>/<alias>`` (alter egos add a suffix).
    alias / forum:
        Where the document came from.
    text:
        Normalized text: tokens joined by single spaces, word tokens
        lemmatized and casefolded.  Character n-grams and the
        punctuation/digit/special-character frequencies are computed on
        this string.
    words:
        The lemmatized word-token stream (word n-gram source).
    timestamps:
        Raw posting timestamps (epoch seconds, UTC).
    activity:
        The 24-bin daily activity profile, or ``None`` when the alias
        has fewer than the required usable timestamps.
    metadata:
        Ground-truth annotations carried through from the user record.
    structure:
        The reply-graph/thread-structure vector
        (:data:`repro.core.structure.STRUCTURE_DIM` entries), or
        ``None`` when no structural evidence was collected.  Optional:
        only read when the structure family is enabled.
    """

    doc_id: str
    alias: str
    forum: str
    text: str
    words: Tuple[str, ...]
    timestamps: Tuple[int, ...]
    activity: Optional[np.ndarray]
    metadata: Dict[str, object] = field(default_factory=dict)
    structure: Optional[np.ndarray] = None

    @property
    def n_words(self) -> int:
        return len(self.words)


def normalize_message(text: str, use_lemmatization: bool = True,
                      ) -> Tuple[str, List[str]]:
    """Normalize one message (Section IV-A pre-processing).

    Returns ``(normalized_text, word_tokens)``.  Word tokens are
    casefolded and lemmatized; punctuation, numbers and symbols are kept
    as standalone tokens in the normalized text so character n-grams and
    frequency features still see them.
    """
    pieces: List[str] = []
    words: List[str] = []
    # The tokenizer's own pattern, without a Token object per match.
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "word":
            word = match.group().lower()
            if use_lemmatization:
                word = lemmatize_word(word)
            pieces.append(word)
            words.append(word)
        else:
            pieces.append(match.group())
    return " ".join(pieces), words


def build_document(record: UserRecord,
                   words_per_alias: int = WORDS_PER_ALIAS,
                   min_timestamps: int = MIN_TIMESTAMPS,
                   use_lemmatization: bool = True,
                   require_activity: bool = True,
                   doc_id: Optional[str] = None,
                   utc_shift_hours: int = 0,
                   structure: Optional[np.ndarray] = None,
                   ) -> Optional[AliasDocument]:
    """Build the document for one alias, or ``None`` if it fails refinement.

    Messages are sorted longest-first (by word count) and concatenated
    until *words_per_alias* words are accumulated (Section IV-D).  An
    alias is rejected when it cannot fill the word budget, or — when
    *require_activity* is set — when it lacks ``min_timestamps`` usable
    timestamps.  *structure* optionally attaches the alias's
    reply-graph vector (see :mod:`repro.core.structure`).
    """
    normalized: List[Tuple[str, List[str]]] = [
        normalize_message(m.text, use_lemmatization)
        for m in record.messages
    ]
    order = sorted(range(len(normalized)),
                   key=lambda i: len(normalized[i][1]), reverse=True)
    text_parts: List[str] = []
    words: List[str] = []
    for i in order:
        if len(words) >= words_per_alias:
            break
        part_text, part_words = normalized[i]
        if not part_words:
            continue
        text_parts.append(part_text)
        words.extend(part_words)
    if len(words) < words_per_alias:
        return None
    timestamps = tuple(sorted(record.timestamps))
    activity = try_activity_profile(timestamps, min_timestamps,
                                    utc_shift_hours)
    if require_activity and activity is None:
        return None
    metadata = dict(record.metadata)
    disclosures: Dict[str, List[str]] = {}
    for message in record.messages:
        for kind, value in message.metadata.get("disclosures", {}).items():
            disclosures.setdefault(kind, []).append(value)
    if disclosures:
        metadata["disclosures"] = disclosures
    return AliasDocument(
        doc_id=doc_id or f"{record.forum}/{record.alias}",
        alias=record.alias,
        forum=record.forum,
        text=" ".join(text_parts),
        words=tuple(words),
        timestamps=timestamps,
        activity=activity,
        metadata=metadata,
        structure=structure,
    )


def refine_forum(forum: Forum,
                 words_per_alias: int = WORDS_PER_ALIAS,
                 min_timestamps: int = MIN_TIMESTAMPS,
                 use_lemmatization: bool = True,
                 require_activity: bool = True,
                 utc_shift_hours: int = 0,
                 structure_profiles: Optional[
                     Dict[str, np.ndarray]] = None,
                 ) -> List[AliasDocument]:
    """Refine a polished forum into alias documents (Section IV-D).

    Aliases failing the word or timestamp floors are dropped; the
    result is what Table IV calls the final dataset composition.
    *structure_profiles* optionally maps aliases to reply-graph
    vectors (computed on the **unpolished** forum, whose threads are
    intact — see :func:`repro.core.structure.structure_profiles`);
    matching documents get the vector attached.
    """
    documents: List[AliasDocument] = []
    for record in forum.users.values():
        structure = None
        if structure_profiles is not None:
            structure = structure_profiles.get(record.alias)
        document = build_document(
            record,
            words_per_alias=words_per_alias,
            min_timestamps=min_timestamps,
            use_lemmatization=use_lemmatization,
            require_activity=require_activity,
            utc_shift_hours=utc_shift_hours,
            structure=structure,
        )
        if document is not None:
            documents.append(document)
    return documents


def eligible_for_alter_ego(record: UserRecord,
                           min_words: int,
                           min_timestamps: int) -> bool:
    """Whether a user has enough data to be split into two aliases.

    Section IV-D requires more than 3,000 words and more than 60 usable
    timestamps so that both halves clear the single-alias floors.
    """
    if len(usable_timestamps(record.timestamps)) < min_timestamps:
        return False
    total = 0
    for message in record.messages:
        total += count_words(message.text)
        if total >= min_words:
            return True
    return total >= min_words


def documents_by_id(documents: Iterable[AliasDocument],
                    ) -> Dict[str, AliasDocument]:
    """Index documents by :attr:`AliasDocument.doc_id`."""
    index: Dict[str, AliasDocument] = {}
    for document in documents:
        if document.doc_id in index:
            raise ValueError(f"duplicate doc_id {document.doc_id!r}")
        index[document.doc_id] = document
    return index
