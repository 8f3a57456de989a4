"""Regular-expression pattern library used by the polishing pipeline.

Section III-C of the paper removes or normalizes a dozen kinds of web
"dirt" before any stylometric feature is computed.  All the patterns
involved live here so the cleaning steps (:mod:`repro.textproc.cleaning`)
stay declarative and each pattern can be unit-tested in isolation.

Each step first checks a cheap condition that every match of its
patterns requires (a dot before a letter or digit for URLs, an ``@`` for
e-mail addresses, ...) and returns the text untouched when it fails, so
most messages skip most regular expressions.
"""

from __future__ import annotations

import re


def _lacks(text: str, *words: str) -> bool:
    """True when no case variant of the lowercase ASCII *words* is in *text*.

    Decided for ASCII text only: under ``re.IGNORECASE`` the non-ASCII
    ``İ`` and ``ı`` match ``i``, and ``str.lower`` does not map them to
    ``i``.  For other text this returns ``False``, so the pattern runs.
    """
    if not text.isascii():
        return False
    lowered = text.lower()
    return not any(word in lowered for word in words)


# --- URLs (polishing step 3: keep only the hostname) -------------------

#: Matches http(s):// URLs as well as bare ``www.`` URLs.
URL_RE = re.compile(
    r"""
    (?P<scheme>https?://)?          # optional scheme
    (?P<host>
        (?:www\.)?                  # optional www.
        [a-zA-Z0-9][a-zA-Z0-9-]*    # first label
        (?:\.[a-zA-Z0-9][a-zA-Z0-9-]*)+   # at least one more label
    )
    (?P<rest>/[^\s<>"')\]]*)?       # optional path/query fragment
    """,
    re.VERBOSE | re.IGNORECASE,
)

#: Hosts must contain a known-looking TLD or start with www/scheme to be
#: treated as URLs; this keeps "e.g." or "i.e." from being mangled.
_COMMON_TLDS = (
    "com", "org", "net", "io", "gov", "edu", "info", "biz", "co",
    "onion", "me", "tv", "uk", "de", "fr", "it", "ru", "es", "nl",
    "ca", "au", "us", "eu", "ch", "se", "no", "pl", "jp", "cn", "in",
)
_TLD_RE = re.compile(r"\.(?:%s)$" % "|".join(_COMMON_TLDS), re.IGNORECASE)

#: A dot followed by a label character, which every :data:`URL_RE` match
#: contains.  Same class and flags, so the same non-ASCII case folds.
_URL_HINT_RE = re.compile(r"\.[a-zA-Z0-9]", re.IGNORECASE)


def looks_like_url(match: re.Match) -> bool:
    """Decide whether a :data:`URL_RE` match is genuinely a URL.

    A match counts as a URL when it carries an explicit scheme, starts
    with ``www.``, or ends in a well-known top-level domain.  This guards
    against false positives on dotted abbreviations such as ``e.g.``.
    """
    if match.group("scheme"):
        return True
    host = match.group("host")
    if host.lower().startswith("www."):
        return True
    return bool(_TLD_RE.search(host))


def normalize_urls(text: str) -> str:
    """Replace every URL in *text* with its bare hostname.

    Implements polishing step 3: ``http://www.reddit.com/r/x?a=1`` becomes
    ``reddit.com``.  The scheme, the leading ``www.`` and everything after
    the host are discarded.
    """

    def _repl(match: re.Match) -> str:
        if not looks_like_url(match):
            return match.group(0)
        host = match.group("host").lower()
        if host.startswith("www."):
            host = host[len("www."):]
        return host

    if not _URL_HINT_RE.search(text):
        return text
    return URL_RE.sub(_repl, text)


# --- E-mail addresses (polishing step 10) -------------------------------

EMAIL_RE = re.compile(
    r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}"
)

#: The tag that replaces e-mail addresses, exactly as in the paper.
EMAIL_TAG = "_mail_"


def mask_emails(text: str) -> str:
    """Replace every e-mail address with the ``_mail_`` tag (step 10)."""
    if "@" not in text:
        return text
    return EMAIL_RE.sub(EMAIL_TAG, text)


# --- Emojis (polishing step 4) ------------------------------------------

#: Unicode ranges covering emoji and related pictographs.  The ranges are
#: deliberately broad: stylometric features must never be computed on
#: pictographic codepoints.
EMOJI_RE = re.compile(
    "["
    "\U0001F300-\U0001F5FF"   # symbols & pictographs
    "\U0001F600-\U0001F64F"   # emoticons
    "\U0001F680-\U0001F6FF"   # transport & map symbols
    "\U0001F700-\U0001F77F"   # alchemical symbols
    "\U0001F780-\U0001F7FF"   # geometric shapes extended
    "\U0001F800-\U0001F8FF"   # supplemental arrows-C
    "\U0001F900-\U0001F9FF"   # supplemental symbols & pictographs
    "\U0001FA00-\U0001FAFF"   # symbols & pictographs extended-A
    "\U00002700-\U000027BF"   # dingbats
    "\U0001F1E6-\U0001F1FF"   # regional indicators (flags)
    "\U00002600-\U000026FF"   # misc symbols
    "\U0000FE00-\U0000FE0F"   # variation selectors
    "\U0000200D"              # zero-width joiner
    "]+",
)


def strip_emojis(text: str) -> str:
    """Remove every emoji codepoint from *text* (polishing step 4)."""
    if text.isascii():
        return text
    return EMOJI_RE.sub("", text)


# --- PGP blocks (polishing step 11) --------------------------------------

#: A full ASCII-armored PGP block: key, message or signature.
PGP_BLOCK_RE = re.compile(
    r"-----BEGIN PGP (?P<kind>[A-Z ]+)-----"
    r".*?"
    r"-----END PGP (?P=kind)-----",
    re.DOTALL,
)

#: Phrases that typically introduce a PGP key in dark-web forum posts.
PGP_INTRO_RE = re.compile(
    r"(?:my|our|new|updated|current)?\s*"
    r"(?:pgp|gpg)\s*"
    r"(?:public\s+)?key\s*"
    r"(?:is|below|follows|attached)?\s*[:\-]?\s*$",
    re.IGNORECASE | re.MULTILINE,
)


def strip_pgp_blocks(text: str) -> str:
    """Remove ASCII-armored PGP blocks and their introduction lines.

    Implements polishing step 11.  The paper notes that in dark-web
    forums the key is usually preceded by a short introductory sentence;
    we remove an introduction line when it directly precedes a block.
    """
    if _lacks(text, "pgp", "gpg"):
        return text
    text = PGP_BLOCK_RE.sub("", text)
    # Remove now-dangling introduction lines ("my PGP key:").
    text = PGP_INTRO_RE.sub("", text)
    return text


# --- Quotes (polishing step 8) -------------------------------------------

#: Reddit/Markdown-style quote lines begin with '>' possibly indented.
QUOTE_LINE_RE = re.compile(r"^\s*>.*$", re.MULTILINE)

#: BBCode-style quotes used by classic forum software (e.g. SMF, phpBB),
#: which both The Majestic Garden and the Dream Market forum run on.
BBCODE_QUOTE_RE = re.compile(
    r"\[quote(?:=[^\]]*)?\].*?\[/quote\]",
    re.DOTALL | re.IGNORECASE,
)


def strip_quotes(text: str) -> str:
    """Remove quoted text so only the author's own words remain (step 8)."""
    if "[" in text:
        text = BBCODE_QUOTE_RE.sub("", text)
    if ">" in text:
        text = QUOTE_LINE_RE.sub("", text)
    return text


# --- Edit markers (polishing step 9) -------------------------------------

#: "Edit by <username> ..." markers appended by forum software, and the
#: Reddit convention "EDIT:" / "Edit 2:" lines that often name the user.
EDIT_BY_RE = re.compile(
    r"(?:--\s*)?edit(?:ed)?\s+by\s+\S+.*$",
    re.IGNORECASE | re.MULTILINE,
)

EDIT_PREFIX_RE = re.compile(
    r"^\s*edit(?:\s*\d+)?\s*:\s*",
    re.IGNORECASE | re.MULTILINE,
)


def strip_edit_markers(text: str) -> str:
    """Remove platform-added edit attributions (polishing step 9).

    ``Edit by <username>`` trailers are removed wholesale because they
    embed the author's nickname and would leak label information into
    the features.  Bare ``EDIT:`` prefixes are stripped but the edited
    text itself (written by the author) is kept.
    """
    if _lacks(text, "edit"):
        return text
    text = EDIT_BY_RE.sub("", text)
    text = EDIT_PREFIX_RE.sub("", text)
    return text


# --- Long words (polishing step 12) ---------------------------------------

def strip_long_words(text: str, max_length: int = 34) -> str:
    """Drop whitespace-delimited tokens longer than *max_length* (step 12).

    Such tokens are almost never natural-language words: they are ASCII
    art, key material that escaped the PGP pattern, or keyboard mashing.
    """
    return " ".join(
        word for word in text.split() if len(word) <= max_length
    )


# --- Misc helpers ----------------------------------------------------------

WHITESPACE_RE = re.compile(r"\s+")


def collapse_whitespace(text: str) -> str:
    """Collapse runs of whitespace into single spaces and trim the ends."""
    return WHITESPACE_RE.sub(" ", text).strip()
