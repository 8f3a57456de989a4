"""CI smoke: the cache actually eliminates restage re-tokenization.

Run directly by the ``bench-smoke`` CI job: a small corpus is linked,
and the ``tokenizations_total`` / ``profile_cache_hits_total`` counters
must prove the restage tokenizes nothing — every raw text walk
happened exactly once, during stage 1.
"""

from repro.core.linker import AliasLinker
from repro.obs.metrics import get_registry


def _value(name):
    return get_registry().snapshot().get(name, {}).get("value", 0)


def test_cached_restage_tokenizes_nothing(reddit_alter_egos):
    linker = AliasLinker(threshold=0.4)
    linker.fit(reddit_alter_egos.originals)
    # Stage 1 of link() warms the unknowns; a warm restage must be
    # pure numpy — zero tokenizer calls, only cache hits.
    linker.link(reddit_alter_egos.alter_egos)
    tokenizations = _value("tokenizations_total")
    hits = _value("profile_cache_hits_total")
    for unknown in reddit_alter_egos.alter_egos[:5]:
        candidates = linker.reducer.reduce([unknown])[0]
        linker.rescore(unknown, candidates.documents)
    assert _value("tokenizations_total") == tokenizations
    assert _value("profile_cache_hits_total") > hits


def test_cache_reduces_tokenizer_calls(reddit_alter_egos):
    before = _value("tokenizations_total")
    linker = AliasLinker(threshold=0.4)
    linker.fit(reddit_alter_egos.originals)
    linker.link(reddit_alter_egos.alter_egos)
    cached = _value("tokenizations_total") - before
    n_docs = len(reddit_alter_egos.originals) \
        + len(reddit_alter_egos.alter_egos)
    # Exactly one word + one char encode per document, although the
    # restage encodes every candidate set again.
    assert cached == 2 * n_docs
