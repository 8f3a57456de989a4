"""Golden gate on linking output.

Pins the sha256 of the compact JSON of ``LinkResult.to_dict()`` for the
plain two-stage linker, the linker without stage 1
(``use_reduction=False``, which interns each unknown's words only in
the restage) and the batched variant (``batch_size=11``) on two inputs
built from the session ``world`` (``small_world(seed=7)``):

* ``dm-tmg`` — the refined ``dm`` forum as the known set, the refined
  ``tmg`` forum as the unknowns (the Dark-Open scenario);
* ``reddit`` — the ``reddit_alter_egos`` originals against their alter
  egos.

Every score, candidate list and acceptance decision goes into the
digest, so any change to feature selection, projection, Tf-Idf,
similarity or the batched stage 1 that moves a single bit fails here.
A deliberate change must update the pins and say why.

The pins were recorded with scipy's sparse product as the only
similarity kernel; the same digests must come out whichever share of
the calls ``similarity.QUERY_ROWS`` sends to the slab kernel, none
included.
"""

import hashlib
import json

import pytest

from repro.core import similarity
from repro.core.batch import BatchedLinker
from repro.core.documents import refine_forum
from repro.core.linker import AliasLinker

GOLDEN = {
    ("dm-tmg", "plain"):
        "174ea9a8455db153ed6b350c9cd07d36245d3f4efb24104bbe38b7eed27d87a5",
    ("dm-tmg", "batched"):
        "174ea9a8455db153ed6b350c9cd07d36245d3f4efb24104bbe38b7eed27d87a5",
    ("reddit", "plain"):
        "00c6105ae7239d449044916b6f728e2980bd1e698eb07938122892a8a6bbed58",
    ("reddit", "batched"):
        "6422797564c5bfe921558ea13aa8b319031c84e280a75e0e9656fb02162aca68",
    ("dm-tmg", "unreduced"):
        "0ba208901badb214c66eb88af09ab194ab4b639219ce761ebd892994bc2a81ce",
    ("reddit", "unreduced"):
        "bc80fc19a59fd2463d70037a72322797cb30ff43bf20d4211c16fc6f416a5d69",
}

LINKERS = {
    "plain": AliasLinker,
    "batched": lambda: BatchedLinker(batch_size=11),
    "unreduced": lambda: AliasLinker(use_reduction=False),
}


def link_digest(result) -> str:
    """sha256 of the compact, key-sorted JSON of a ``LinkResult``."""
    blob = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def inputs(polished_dm, polished_tmg, reddit_alter_egos):
    return {
        "dm-tmg": (refine_forum(polished_dm), refine_forum(polished_tmg)),
        "reddit": (reddit_alter_egos.originals,
                   reddit_alter_egos.alter_egos),
    }


@pytest.mark.parametrize("data,linker", sorted(GOLDEN))
def test_link_output_matches_golden(inputs, data, linker):
    known, unknowns = inputs[data]
    result = LINKERS[linker]().fit(known).link(unknowns)
    assert link_digest(result) == GOLDEN[data, linker]


@pytest.mark.parametrize("query_rows", [0, 1, 3, 7])
@pytest.mark.parametrize("data,linker", sorted(GOLDEN))
def test_golden_holds_for_either_kernel(inputs, data, linker,
                                          query_rows, monkeypatch):
    monkeypatch.setattr(similarity, "QUERY_ROWS", query_rows)
    known, unknowns = inputs[data]
    result = LINKERS[linker]().fit(known).link(unknowns)
    assert link_digest(result) == GOLDEN[data, linker]
