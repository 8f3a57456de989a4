"""Seeded input generation for the end-to-end benchmark.

Run as ``python gen.py --workload W --seed N --out DIR [--smoke]``.  It
writes the workload's input files into DIR plus ``meta.json`` (the
sizes the workload process needs and how long generation took).  The
same seed always writes byte-identical input files; ``run.py`` pins
their sha256 for the default and held-out seeds.

Two kinds of input exist:

* ``dark-open`` gets raw forum dumps from :func:`repro.synth.build_world`
  (Reddit and TMG), saved with :func:`repro.forums.save_world`.
* The other workloads get refined alias documents from a small
  authorship model: every author has a Zipf distribution over a private
  ordering of :mod:`repro.synth.wordlists`, a punctuation habit and a
  24-bin posting-hour profile.  An unknown alias is an alter ego, a
  second sample from the same author with the word distribution
  drifted towards noise, so the ranker has real work to do.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.forums import Forum, UserRecord, save_world  # noqa: E402
from repro.synth import ForumLoad, WorldConfig, build_world  # noqa: E402
from repro.synth import wordlists  # noqa: E402

#: Sizes per workload, full run first, then ``--smoke`` (about 10x
#: smaller, same code paths).
SIZES = {
    "dark-open": {
        # Every user is heavy and is cut to the same character budget,
        # so each seed hands polishing the same amount of text (its cost
        # follows characters, not messages).  24k characters leave even
        # users with long messages the 30 usable timestamps refinement
        # needs.
        "full": {"reddit_users": 8, "tmg_users": 5, "overlap": 4,
                 "chars_per_user": 24_000},
        "smoke": {"reddit_users": 4, "tmg_users": 3, "overlap": 2,
                  "chars_per_user": 24_000},
    },
    "index-query": {
        "full": {"known": 4000, "batches": 32, "per_op": 20},
        "smoke": {"known": 300, "batches": 4, "per_op": 5},
    },
    "incremental-mix": {
        # Ops grow the known set within a state; 25 authors per cycle
        # keep the last op of a state within a few percent of the first.
        "full": {"known": 2000, "cycles": 10, "add": 25, "per_op": 20},
        "smoke": {"known": 200, "cycles": 3, "add": 10, "per_op": 4},
    },
    "batched-ivj": {
        "full": {"known": 1000, "warm": 10, "batches": 24, "per_op": 4},
        "smoke": {"known": 200, "warm": 2, "batches": 3, "per_op": 2},
    },
}

WORKLOADS = tuple(SIZES)

#: Words per generated document and timestamps per author.
DOC_WORDS = 80
DOC_STAMPS = 50
#: Share of an alter ego's word distribution replaced by noise; chosen
#: so that top-1 accuracy stays clear of 1.0 and a worse ranker shows.
DRIFT = 0.65

VOCAB = tuple(dict.fromkeys(wordlists.FUNCTION_WORDS
                            + wordlists.CONTENT_WORDS
                            + wordlists.SLANG))
PUNCT = (".", ",", "!", "?", ";", ":", "-", "'", "(", ")")
_ZIPF = 1.0 / np.arange(1, len(VOCAB) + 1) ** 1.1
_ZIPF /= _ZIPF.sum()
#: Monday 2017-01-09 00:00 UTC; stamps fall on the 50 weeks after it.
_EPOCH = 1483920000
_DAY = 86400


def _author(rng: np.random.Generator) -> dict:
    words = np.empty(len(VOCAB))
    words[rng.permutation(len(VOCAB))] = _ZIPF
    return {"words": words,
            "punct": rng.dirichlet(np.full(len(PUNCT), 0.5)),
            "punct_rate": rng.uniform(0.05, 0.2),
            "hours": rng.dirichlet(np.full(24, 0.3))}


def _alter_ego(rng: np.random.Generator, author: dict) -> dict:
    noise = rng.dirichlet(np.full(len(VOCAB), 0.5))
    words = (1.0 - DRIFT) * author["words"] + DRIFT * noise
    return dict(author, words=words / words.sum())


def _document(rng: np.random.Generator, author: dict, doc_id: str,
              truth: str | None = None) -> dict:
    picks = rng.choice(len(VOCAB), size=DOC_WORDS, p=author["words"])
    words = [VOCAB[i] for i in picks]
    marks = rng.random(DOC_WORDS) < author["punct_rate"]
    kinds = rng.choice(len(PUNCT), size=DOC_WORDS, p=author["punct"])
    tokens = []
    for word, mark, kind in zip(words, marks, kinds):
        tokens.append(word)
        if mark:
            tokens.append(PUNCT[kind])
    days = rng.integers(0, 50, DOC_STAMPS) * 7 + rng.integers(0, 5, DOC_STAMPS)
    hours = rng.choice(24, size=DOC_STAMPS, p=author["hours"])
    seconds = rng.integers(0, 3600, DOC_STAMPS)
    stamps = sorted(int(_EPOCH + d * _DAY + h * 3600 + s)
                    for d, h, s in zip(days, hours, seconds))
    record = {"doc_id": doc_id, "text": " ".join(tokens), "words": words,
              "timestamps": stamps}
    if truth is not None:
        record["truth"] = truth
    return record


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _known_id(i: int) -> str:
    return f"known/a{i:05d}"


def _unknowns(rng, authors, picks, prefix):
    return [_document(rng, _alter_ego(rng, authors[i]),
                      f"unknown/{prefix}{n:04d}", truth=_known_id(i))
            for n, i in enumerate(picks)]


def gen_documents(workload: str, size: dict, seed: int, out: Path) -> None:
    """Known and unknown alias documents for the document workloads."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n_known = size["known"]
    n_added = size.get("cycles", 0) * size.get("add", 0)
    authors = [_author(rng) for _ in range(n_known + n_added)]
    known = [_document(rng, a, _known_id(i))
             for i, a in enumerate(authors[:n_known])]
    _write_jsonl(out / "known.jsonl", known)
    if workload == "index-query":
        picks = rng.choice(n_known, size["batches"] * size["per_op"],
                           replace=False)
        _write_jsonl(out / "unknown.jsonl",
                     _unknowns(rng, authors, picks, "q"))
    elif workload == "batched-ivj":
        n = (size["warm"] + size["batches"] * size["per_op"])
        picks = rng.choice(n_known, n, replace=False)
        _write_jsonl(out / "unknown.jsonl",
                     _unknowns(rng, authors, picks, "q"))
    else:
        # Cycle j appends authors [known + j*add, known + (j+1)*add)
        # and then links per_op/2 alter egos of those fresh authors
        # and per_op/2 of base authors.
        added = [_document(rng, authors[i], _known_id(i))
                 for i in range(n_known, n_known + n_added)]
        _write_jsonl(out / "added.jsonl", added)
        half = size["per_op"] // 2
        base = rng.choice(n_known, size["cycles"] * half, replace=False)
        picks = []
        for j in range(size["cycles"]):
            start = n_known + j * size["add"]
            picks.extend(range(start, start + half))
            picks.extend(int(i) for i in base[j * half:(j + 1) * half])
        _write_jsonl(out / "unknown.jsonl",
                     _unknowns(rng, authors, picks, "q"))


def _trim(forum: Forum, budget: int) -> Forum:
    """*forum* with each user cut to their first *budget* characters."""
    trimmed = Forum(name=forum.name, utc_offset_hours=forum.utc_offset_hours,
                    sections=list(forum.sections))
    for alias, record in forum.users.items():
        kept = UserRecord(alias=record.alias, forum=record.forum,
                          metadata=dict(record.metadata))
        chars = 0
        for message in record.messages:
            if chars >= budget:
                break
            kept.add(message)
            chars += len(message.text)
        trimmed.users[alias] = kept
    trimmed.threads = dict(forum.threads)
    return trimmed


def gen_world(size: dict, seed: int, out: Path) -> None:
    """Raw Reddit and TMG dumps plus the planted TMG→Reddit pairs."""
    load = ForumLoad(heavy_fraction=1.0, heavy_messages=(230, 250))
    world = build_world(WorldConfig(
        seed=seed, reddit_users=size["reddit_users"],
        tmg_users=size["tmg_users"], dm_users=0, tmg_dm_overlap=0,
        reddit_dark_overlap=size["overlap"],
        reddit_load=load, tmg_load=load))
    forums = [_trim(world.forums[name], size["chars_per_user"])
              for name in ("reddit", "tmg")]
    save_world(forums, out)
    truth = {f"tmg/{dark}": f"reddit/{open_}" for dark, open_
             in sorted(world.linked_aliases("tmg", "reddit").items())}
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True)
                                    + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    size = SIZES[args.workload]["smoke" if args.smoke else "full"]
    args.out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    if args.workload == "dark-open":
        gen_world(size, args.seed, args.out)
    else:
        gen_documents(args.workload, size, args.seed, args.out)
    meta = {"workload": args.workload, "seed": args.seed,
            "smoke": args.smoke, "size": size,
            "gen_s": time.perf_counter() - start}
    (args.out / "meta.json").write_text(json.dumps(meta, sort_keys=True)
                                        + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
