"""Tokenization of forum text into linguistic units.

Section IV-A: "Tokenization is the process of breaking up a stream of
text into linguistic units such as words, punctuation, or other
meaningful elements."  Web text is messy — writers skip spaces after
punctuation, glue emoticons to words, and abuse ellipses — so the
tokenizer must split punctuation off words while keeping multi-character
units (``...``, ``!!``, ``:)``) together where they carry stylistic
signal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

#: Token kinds produced by the tokenizer.
WORD = "word"
NUMBER = "number"
PUNCT = "punct"
SYMBOL = "symbol"

#: A word: ASCII letters, with inner apostrophes or hyphens.
_WORD = r"[A-Za-z]+(?:['’\-][A-Za-z]+)*"

#: Word tokens alone.  No other token kind contains an ASCII letter, so
#: a word scan finds exactly the word tokens of :data:`_TOKEN_RE`.
_WORD_RE = re.compile(_WORD)

_TOKEN_RE = re.compile(
    r"""
    (?P<word>""" + _WORD + r""")              # words incl. contractions
  | (?P<number>\d+(?:[.,]\d+)*)               # integers & decimals
  | (?P<ellipsis>\.{2,})                      # ... runs kept whole
  | (?P<bangrun>[!?]{2,})                     # !!, ?!?! runs kept whole
  | (?P<punct>[.,;:!?"'()\[\]{}\-])           # single punctuation marks
  | (?P<symbol>\S)                            # any other printable symbol
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A single token with its surface form and coarse kind.

    Attributes
    ----------
    text:
        The surface form exactly as it appears in the input.
    kind:
        One of :data:`WORD`, :data:`NUMBER`, :data:`PUNCT`,
        :data:`SYMBOL`.
    """

    text: str
    kind: str

    def lower(self) -> str:
        """The casefolded surface form (convenience for n-gram building)."""
        return self.text.lower()


def iter_tokens(text: str) -> Iterator[Token]:
    """Yield :class:`Token` objects for *text* in document order.

    Multi-character punctuation runs (``...``, ``?!``) are emitted as a
    single punctuation token because their presence is an author habit
    the character n-grams should see intact.
    """
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        surface = match.group(0)
        if kind == "word":
            yield Token(surface, WORD)
        elif kind == "number":
            yield Token(surface, NUMBER)
        elif kind in ("ellipsis", "bangrun", "punct"):
            yield Token(surface, PUNCT)
        else:
            yield Token(surface, SYMBOL)


def tokenize(text: str) -> List[Token]:
    """Tokenize *text* into a list of :class:`Token` objects."""
    return list(iter_tokens(text))


def words(text: str) -> List[str]:
    """The surface forms of the word tokens of *text*, in order.

    This is the one definition of a word: every other word helper here
    is built on it.
    """
    return _WORD_RE.findall(text)


def word_tokens(text: str, lowercase: bool = True) -> List[str]:
    """Return only the word tokens of *text* as plain strings.

    Parameters
    ----------
    text:
        Input text.
    lowercase:
        Casefold tokens (default).  Word n-gram features are built on
        casefolded text; character n-grams see the original casing.
    """
    found = words(text)
    if lowercase:
        found = [w.lower() for w in found]
    return found


def count_words(text: str) -> int:
    """Number of word tokens in *text*.

    This is the word count used throughout the pipeline: for the
    10-word minimum of polishing step 5, for the 1,500-word alias
    budget, and for the Table III word sweeps.
    """
    return len(words(text))


def distinct_ratio(found: Sequence[str]) -> float:
    """Ratio of distinct casefolded words over total words.

    *found* is the output of :func:`words`.  Returns 0.0 when it is
    empty, which makes empty or symbol-only messages fail the spam
    filter as intended.
    """
    if not found:
        return 0.0
    return len({w.lower() for w in found}) / len(found)


def distinct_word_ratio(text: str) -> float:
    """Ratio of distinct words over total words (polishing step 6).

    Returns 0.0 for text without any word token.
    """
    return distinct_ratio(words(text))


def sentences(text: str) -> List[str]:
    """Split *text* into rough sentences on ``.``, ``!`` and ``?``.

    Forum writers are careless with punctuation; this splitter is only
    used for readability-oriented analyses (e.g. the profiling reports),
    never for feature extraction.
    """
    parts = re.split(r"(?<=[.!?])\s+", text.strip())
    return [p for p in (part.strip() for part in parts) if p]


def join_words(tokens: Iterable[str]) -> str:
    """Join word tokens back into a single space-separated string."""
    return " ".join(tokens)
