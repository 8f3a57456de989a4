"""Character n-gram language detector.

Polishing step 7 of the paper keeps only messages written in English;
the authors use the ``langdetect`` library (a port of Google's Java
language-detection project, whose profiles come from Wikipedia).  This
module reproduces the same mechanism offline:

* each supported language has a profile of character 1–3-gram
  log-probabilities built from the seed corpora in
  :mod:`repro.textproc.lang_profiles`;
* a message is scored under every profile with a naive-Bayes
  accumulation over its n-grams, and the best language wins;
* posterior-like confidences are produced with a softmax over the
  per-language average log-likelihoods, so callers can enforce a
  minimum-confidence floor.

The detector is deterministic (unlike ``langdetect``, which is famously
seed-dependent on short inputs).
"""

from __future__ import annotations

import math
import re

import numpy as np
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.errors import LanguageDetectionError
from repro.textproc.lang_profiles import SEED_TEXTS, SUPPORTED_LANGUAGES

#: n-gram orders used for profiles; mirrors the Google library (1..3).
NGRAM_ORDERS = (1, 2, 3)

#: Log-probability assigned to n-grams never seen in a profile.
_UNSEEN_LOGPROB = math.log(1e-7)

#: Minimum number of alphabetic characters needed for a verdict.
MIN_DETECTABLE_CHARS = 6

#: Runs of anything but a lowercase ASCII letter or an apostrophe.
_ASCII_NON_LETTERS_RE = re.compile(r"[^a-z']+")


def _normalize_for_profile(text: str) -> str:
    """Lowercase, keep letters and apostrophes, squeeze whitespace.

    Digits, punctuation and symbols carry almost no language signal and
    would dilute the profiles, so they are collapsed to single spaces.
    The result is padded with a leading and trailing space so that
    word-boundary n-grams (" th", "he ") are represented — these carry a
    large share of the discriminative power.
    """
    if text.isascii():
        # On lowercased ASCII, ``str.isalpha`` is exactly ``[a-z]``.
        collapsed = _ASCII_NON_LETTERS_RE.sub(" ", text.lower()).strip()
        return f" {collapsed} " if collapsed else ""
    chars: List[str] = []
    prev_space = True
    for ch in text.lower():
        if ch.isalpha() or ch == "'":
            chars.append(ch)
            prev_space = False
        elif not prev_space:
            chars.append(" ")
            prev_space = True
    collapsed = "".join(chars).strip()
    return f" {collapsed} " if collapsed else ""


def char_ngrams(text: str, orders: Iterable[int] = NGRAM_ORDERS) -> Counter:
    """Count character n-grams of the given *orders* in *text*.

    Grams are inserted order by order, each in text order.
    """
    counts: Counter = Counter()
    for order in orders:
        counts.update(text if order == 1 else
                      [text[i:i + order]
                       for i in range(len(text) - order + 1)])
    return counts


@dataclass(frozen=True)
class LanguageProfile:
    """A fitted language profile: n-gram log-probabilities.

    Attributes
    ----------
    language:
        ISO-639-1 code (``"en"``, ``"de"``, ...).
    logprobs:
        Mapping from n-gram to its add-one-smoothed log-probability
        within the seed corpus for this language.
    """

    language: str
    logprobs: Mapping[str, float]

    @classmethod
    def from_text(cls, language: str, text: str) -> "LanguageProfile":
        """Build a profile from raw seed text."""
        normalized = _normalize_for_profile(text)
        counts = char_ngrams(normalized)
        total = sum(counts.values())
        vocab = len(counts)
        if total == 0:
            raise LanguageDetectionError(
                f"seed text for language {language!r} has no usable chars")
        logprobs = {
            gram: math.log((count + 1) / (total + vocab))
            for gram, count in counts.items()
        }
        return cls(language=language, logprobs=logprobs)


@dataclass(frozen=True)
class Detection:
    """Result of a language-detection call.

    Attributes
    ----------
    language:
        The winning language code.
    confidence:
        Softmax weight of the winner over all candidate languages, in
        (0, 1].  Values near ``1 / n_languages`` mean "no idea".
    scores:
        Per-language average log-likelihoods (diagnostics).
    """

    language: str
    confidence: float
    scores: Mapping[str, float]


class LanguageDetector:
    """Detect the language of short forum messages.

    Parameters
    ----------
    languages:
        Language codes to consider.  Defaults to every language with a
        built-in seed corpus.

    Examples
    --------
    >>> detector = LanguageDetector()
    >>> detector.detect("I really think this is the best vendor here").language
    'en'
    """

    def __init__(self, languages: Iterable[str] | None = None) -> None:
        codes = tuple(languages) if languages is not None else SUPPORTED_LANGUAGES
        unknown = [c for c in codes if c not in SEED_TEXTS]
        if unknown:
            raise LanguageDetectionError(
                f"no built-in profile for language(s): {unknown}")
        if not codes:
            raise LanguageDetectionError("at least one language is required")
        self._profiles: Tuple[LanguageProfile, ...] = tuple(
            _built_in_profile(code) for code in codes
        )
        # Every profile gram is interned to one row of a
        # (n_grams + 1) x n_languages table of log-probabilities; the
        # last row, id ``len(self._gram_ids)``, is the unseen vector.
        self._gram_ids: Dict[str, int] = {}
        for profile in self._profiles:
            for gram in profile.logprobs:
                self._gram_ids.setdefault(gram, len(self._gram_ids))
        self._table = np.full((len(self._gram_ids) + 1, len(codes)),
                              _UNSEEN_LOGPROB)
        for column, profile in enumerate(self._profiles):
            rows = [self._gram_ids[gram] for gram in profile.logprobs]
            self._table[rows, column] = list(profile.logprobs.values())

    @property
    def languages(self) -> Tuple[str, ...]:
        """The language codes this detector discriminates between."""
        return tuple(p.language for p in self._profiles)

    def detect(self, text: str) -> Detection:
        """Detect the language of *text*.

        Raises
        ------
        LanguageDetectionError
            If *text* contains fewer than :data:`MIN_DETECTABLE_CHARS`
            alphabetic characters — too little evidence for a verdict.
        """
        normalized = _normalize_for_profile(text)
        # The normalized text holds only letters, apostrophes and spaces.
        letters = (len(normalized) - normalized.count(" ")
                   - normalized.count("'"))
        if letters < MIN_DETECTABLE_CHARS:
            raise LanguageDetectionError(
                "not enough alphabetic characters to detect a language")
        grams = char_ngrams(normalized)
        n_grams = len(grams)
        ids = np.fromiter(
            map(self._gram_ids.get, grams,
                repeat(len(self._gram_ids), n_grams)),
            dtype=np.intp, count=n_grams)
        counts = np.fromiter(grams.values(), dtype=np.float64,
                             count=n_grams)
        vector = counts @ self._table[ids] / counts.sum()
        scores: Dict[str, float] = dict(zip(self.languages,
                                            vector.tolist()))
        best = max(scores, key=scores.get)
        # Softmax over average log-likelihoods for a confidence figure.
        # Temperature scaling (x20) sharpens the distribution: average
        # per-gram log-likelihood differences are small in magnitude but
        # highly reliable.
        peak = scores[best]
        weights = {
            lang: math.exp(min(0.0, (s - peak)) * 20.0)
            for lang, s in scores.items()
        }
        z = sum(weights.values())
        return Detection(language=best, confidence=weights[best] / z,
                         scores=scores)

    def is_english(self, text: str, min_confidence: float = 0.5) -> bool:
        """True when *text* is detected as English with enough confidence.

        Undetectable messages (too short, symbols only) return ``False``:
        the polishing pipeline drops what it cannot vouch for.
        """
        try:
            result = self.detect(text)
        except LanguageDetectionError:
            return False
        return result.language == "en" and result.confidence >= min_confidence


@lru_cache(maxsize=None)
def _built_in_profile(language: str) -> LanguageProfile:
    """Build (and cache) the profile for a built-in language."""
    return LanguageProfile.from_text(language, SEED_TEXTS[language])


@lru_cache(maxsize=1)
def default_detector() -> LanguageDetector:
    """A process-wide detector over all built-in languages."""
    return LanguageDetector()


def detect_language(text: str) -> str:
    """Convenience wrapper: return just the language code for *text*."""
    return default_detector().detect(text).language
