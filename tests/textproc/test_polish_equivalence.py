"""The fast polishing path equals the straightforward one it replaced.

Each test holds a reference copy of the earlier, simpler code and checks
with hypothesis that the current implementation returns exactly the
same result, including on non-ASCII text and on the case variants that
``re.IGNORECASE`` folds together.
"""

import math
import re
import string
from collections import Counter
from typing import List

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.documents import normalize_message
from repro.errors import LanguageDetectionError
from repro.textproc import patterns
from repro.textproc.cleaning import MessagePolisher
from repro.textproc.langdetect import (
    _normalize_for_profile,
    char_ngrams,
    default_detector,
)
from repro.textproc.lemmatizer import lemmatize_word
from repro.textproc.tokenizer import (
    WORD,
    count_words,
    distinct_word_ratio,
    iter_tokens,
    word_tokens,
    words,
)

# -- reference implementations ---------------------------------------------

_UNSEEN_LOGPROB = math.log(1e-7)


def ref_normalize_for_profile(text: str) -> str:
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


def ref_char_ngrams(text: str, orders=(1, 2, 3)) -> Counter:
    counts: Counter = Counter()
    for order in orders:
        if len(text) < order:
            continue
        for i in range(len(text) - order + 1):
            counts[text[i:i + order]] += 1
    return counts


def ref_scores(detector, text: str) -> dict:
    """One logprob row per gram, stacked per message."""
    grams = ref_char_ngrams(ref_normalize_for_profile(text))
    profiles = detector._profiles
    rows = [np.array([p.logprobs.get(gram, _UNSEEN_LOGPROB)
                      for p in profiles]) for gram in grams]
    counts = np.fromiter(grams.values(), dtype=np.float64,
                         count=len(grams))
    vector = counts @ np.vstack(rows) / counts.sum()
    return {p.language: float(vector[i]) for i, p in enumerate(profiles)}


def ref_count_words(text: str) -> int:
    return sum(1 for t in iter_tokens(text) if t.kind == WORD)


def ref_distinct_word_ratio(text: str) -> float:
    found = [t.text.lower() for t in iter_tokens(text) if t.kind == WORD]
    if not found:
        return 0.0
    return len(set(found)) / len(found)


def ref_normalize_urls(text: str) -> str:
    def _repl(match):
        if not patterns.looks_like_url(match):
            return match.group(0)
        host = match.group("host").lower()
        if host.startswith("www."):
            host = host[len("www."):]
        return host

    return patterns.URL_RE.sub(_repl, text)


def ref_mask_emails(text: str) -> str:
    return patterns.EMAIL_RE.sub(patterns.EMAIL_TAG, text)


def ref_strip_emojis(text: str) -> str:
    return patterns.EMOJI_RE.sub("", text)


def ref_strip_pgp_blocks(text: str) -> str:
    text = patterns.PGP_BLOCK_RE.sub("", text)
    return patterns.PGP_INTRO_RE.sub("", text)


def ref_strip_quotes(text: str) -> str:
    text = patterns.BBCODE_QUOTE_RE.sub("", text)
    return patterns.QUOTE_LINE_RE.sub("", text)


def ref_strip_edit_markers(text: str) -> str:
    text = patterns.EDIT_BY_RE.sub("", text)
    return patterns.EDIT_PREFIX_RE.sub("", text)


def ref_transform(text: str, max_word_length: int = 34) -> str:
    text = ref_strip_quotes(text)
    text = ref_strip_edit_markers(text)
    text = ref_strip_pgp_blocks(text)
    text = ref_normalize_urls(text)
    text = ref_mask_emails(text)
    text = ref_strip_emojis(text)
    text = patterns.strip_long_words(text, max_word_length)
    return patterns.collapse_whitespace(text)


def ref_normalize_message(text: str, use_lemmatization: bool = True):
    pieces: List[str] = []
    found: List[str] = []
    for token in iter_tokens(text):
        if token.kind == WORD:
            word = token.text.lower()
            if use_lemmatization:
                word = lemmatize_word(word)
            pieces.append(word)
            found.append(word)
        else:
            pieces.append(token.text)
    return " ".join(pieces), found


# -- strategies -------------------------------------------------------------

#: Pieces every guarded pattern looks for, in several cases, plus the
#: non-ASCII letters that ``re.IGNORECASE`` folds onto ASCII ones.
_FRAGMENTS = [
    "pgp", "PGP", "Pgp", "gpg", "GPG", "my PGP key:", "our gpg public key is",
    "-----BEGIN PGP PUBLIC KEY BLOCK-----", "-----END PGP PUBLIC KEY BLOCK-----",
    "-----BEGIN PGP SIGNATURE-----", "-----END PGP SIGNATURE-----",
    "edit", "Edit:", "EDIT 2:", "edited by bob", "-- Edit by alice",
    "EDİT:", "edıt by x", "[quote]", "[QUOTE=x]", "[Quote=bob]", "[/quote]",
    "[/QUOTE]", "> ", "\n>", "  > quoted", "@", "a@b.co", "bob@mail.onion",
    "http://", "https://", "www.", ".com", ".onion", "e.g.", "3.5", "x.Y",
    "reddit.com/r/x?a=1", "İ", "ı", "ſ", "K", "😀", "🇩🇪", "‍", "é",
    "'", "’", "-", "don't", "well-known", " ", "\n", "\t", " ", " ",
]

mixed_text = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=12),
              st.text(alphabet=string.ascii_letters + " .'", max_size=12)),
    max_size=25,
).map("".join)

any_text = st.one_of(st.text(), mixed_text)

fast = settings(deadline=None)


# -- language detection -----------------------------------------------------

class TestLanguageDetection:
    @fast
    @given(any_text)
    @example("Ünïcödé ÀÉÎ ß straße İstanbul ıi")
    def test_normalize_for_profile(self, text):
        assert _normalize_for_profile(text) == \
            ref_normalize_for_profile(text)

    @fast
    @given(any_text)
    def test_char_ngrams_counts_and_order(self, text):
        normalized = ref_normalize_for_profile(text)
        for source in (text, normalized):
            new = char_ngrams(source)
            old = ref_char_ngrams(source)
            assert list(new.items()) == list(old.items())

    @fast
    @given(any_text)
    @example("the quick brown fox jumps over the lazy dog")
    @example("Я думаю, что нам стоит подождать до завтра")
    @example("qqq zzz xxx")
    def test_scores_bit_equal_to_vstack(self, text):
        detector = default_detector()
        try:
            detection = detector.detect(text)
        except LanguageDetectionError:
            return
        expected = ref_scores(detector, text)
        assert list(detection.scores) == list(expected)
        for language, score in expected.items():
            assert detection.scores[language] == score


# -- word counts ------------------------------------------------------------

class TestWords:
    @fast
    @given(any_text)
    @example("don't well-known it’s --x-- a-b-c 3.5 abc123def")
    def test_words_agree_with_token_walk(self, text):
        assert words(text) == [t.text for t in iter_tokens(text)
                               if t.kind == WORD]
        assert count_words(text) == ref_count_words(text)
        assert distinct_word_ratio(text) == ref_distinct_word_ratio(text)
        assert word_tokens(text) == [w.lower() for w in words(text)]
        assert word_tokens(text, lowercase=False) == words(text)


# -- guarded patterns -------------------------------------------------------

GUARDED = [
    (patterns.normalize_urls, ref_normalize_urls),
    (patterns.mask_emails, ref_mask_emails),
    (patterns.strip_emojis, ref_strip_emojis),
    (patterns.strip_pgp_blocks, ref_strip_pgp_blocks),
    (patterns.strip_quotes, ref_strip_quotes),
    (patterns.strip_edit_markers, ref_strip_edit_markers),
]


class TestGuardedPatterns:
    @fast
    @given(any_text)
    @example("EDİT: the İ folds onto i under IGNORECASE")
    @example("Edit: fixed typo\n-- EDITED BY alice yesterday")
    @example("My PGP key:\n-----BEGIN PGP PUBLIC KEY BLOCK-----\nabc\n"
             "-----END PGP PUBLIC KEY BLOCK-----")
    @example("[QUOTE=x]old words[/QUOTE] my reply\n> quoted line")
    @example("see WWW.Example.COM/path or mail Bob@Mail.Onion 😀")
    def test_guard_never_changes_result(self, text):
        for guarded, reference in GUARDED:
            assert guarded(text) == reference(text), guarded.__name__

    @fast
    @given(any_text)
    def test_transform_matches_reference(self, text):
        assert MessagePolisher().transform(text) == ref_transform(text)


# -- document normalization -------------------------------------------------

class TestNormalizeMessage:
    @fast
    @given(any_text, st.booleans())
    @example("The vendors WERE shipping... 3.5g!! :) don't", True)
    def test_matches_token_walk(self, text, use_lemmatization):
        assert normalize_message(text, use_lemmatization) == \
            ref_normalize_message(text, use_lemmatization)
