"""Golden gate on polishing output.

Pins, for each forum of the session ``world`` (``small_world(seed=7)``),
the sha256 of the polished ``[alias, [message texts]]`` list and the
full :class:`~repro.textproc.cleaning.PolishReport`.  Any change to what
polishing keeps, drops or rewrites fails here; a deliberate change must
update the pins and say why.
"""

import hashlib
import json

import pytest

from repro.textproc.cleaning import polish_forum

GOLDEN = {
    "reddit": (
        "c38cded58613376a4e369d818637d94b6df615e4a4e0faf11809c23b87438cfa",
        {"dropped_bot_accounts": 1, "dropped_duplicates": 0,
         "dropped_short": 429, "dropped_low_diversity": 72,
         "dropped_non_english": 67, "dropped_empty_after_cleaning": 0,
         "kept_messages": 2989, "kept_users": 30,
         "input_messages": 3609, "input_users": 31},
    ),
    "tmg": (
        "27be74e3a490e66c6e64a896aec5ac394b91099283895ccccb337aab56a01a45",
        {"dropped_bot_accounts": 0, "dropped_duplicates": 0,
         "dropped_short": 175, "dropped_low_diversity": 36,
         "dropped_non_english": 20, "dropped_empty_after_cleaning": 0,
         "kept_messages": 1381, "kept_users": 14,
         "input_messages": 1612, "input_users": 14},
    ),
    "dm": (
        "7bb8f5b1a498e6f47f25c2ae96a543158abb6b1135eef995b993d95bebba1d5b",
        {"dropped_bot_accounts": 0, "dropped_duplicates": 0,
         "dropped_short": 158, "dropped_low_diversity": 24,
         "dropped_non_english": 17, "dropped_empty_after_cleaning": 0,
         "kept_messages": 1124, "kept_users": 10,
         "input_messages": 1323, "input_users": 10},
    ),
}


def polished_digest(forum) -> str:
    """sha256 of the polished forum as ``[[alias, [text, ...]], ...]``."""
    payload = [[alias, [m.text for m in record.messages]]
               for alias, record in forum.users.items()]
    blob = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_polished_forum_matches_golden(world, name):
    digest, report = GOLDEN[name]
    polished, actual = polish_forum(world.forums[name])
    assert actual.as_dict() == report
    assert polished_digest(polished) == digest
