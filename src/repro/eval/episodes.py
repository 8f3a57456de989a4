"""Episode-style evaluation harness (Section V, re-cast as episodes).

The perf layer already watches the pipeline's *speed* with benchmark
trajectories and regression diffs; this module is its *quality* twin.
It samples deterministic N-way verification **episodes** from a
synthetic world — one unknown alias against a small candidate panel,
with the true author either present ("closed") or absent ("open") —
runs any configured linker variant over them, and scores per-cell
PR-AUC, accuracy@k and Brier calibration.  Because everything is a
pure function of the seed, the episode manifests and their scores can
be committed as **golden episodes** and asserted within tolerance in
CI: a change that silently degrades linking quality fails the build
the same way a perf regression fails the bench diff.

Cells are ``(drift, text-size bucket)`` pairs:

* drift ``"dark-dark"`` links Dream Market unknowns against The
  Majestic Garden (the paper's easier §V-B setting);
* drift ``"open-dark"`` links merged dark-web unknowns against Reddit
  (the harder §V-C setting, extra style drift);
* the bucket is the per-alias word budget used to build documents
  (the Table III text-size axis).

Everything honours the feature-family configuration
(:class:`repro.config.FeatureConfig`), including the reply-graph
structure family, and snapshot round-trips can be injected per run.
Skipped (quarantined) episodes are counted per cell, never silently
folded into the quality metrics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import PAPER_THRESHOLD, FeatureConfig
from repro.core.documents import AliasDocument, refine_forum
from repro.core.features import DocumentEncoder
from repro.core.kattribution import KAttributor
from repro.core.linker import AliasLinker
from repro.core.similarity import rank_of
from repro.core.structure import merge_profile_maps, structure_profiles
from repro.errors import ConfigurationError, DatasetError
from repro.eval.metrics import accuracy_at_k, pr_curve
from repro.forums.models import Forum, merge_forums
from repro.obs.logging import get_logger
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.perf.cache import ProfileCache
from repro.synth.rng import substream

log = get_logger(__name__)

#: Episodes scored (any variant, any fidelity).
_EPISODES_RUN = counter("episodes_run_total")
#: Episodes quarantined instead of scored.
_EPISODES_SKIPPED = counter("episodes_skipped_total")

#: Linker variants the runner knows how to drive.
VARIANTS = ("full", "stage1")
#: Drift settings an episode suite can cover.
DRIFTS = ("dark-dark", "open-dark")
#: Default tolerance of the golden-episode gate (absolute, per metric).
DEFAULT_TOLERANCE = 0.05
#: Repo-relative home of the committed golden suite.
GOLDEN_PATH = "benchmarks/golden/golden_episodes.json"
#: Metrics the golden gate compares (each within the tolerance).
GOLDEN_METRICS = ("auc", "accuracy_at_1", "brier")


# --------------------------------------------------------------------------
# Configuration and episode records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodeConfig:
    """Recipe for a deterministic episode suite.

    Attributes
    ----------
    seed:
        Master seed; the same seed always yields a byte-identical
        manifest (and, with the same code, identical scores).
    n_way:
        Candidate-panel size of each episode (the true author, when
        present, is one of them).
    episodes_per_cell:
        Episodes sampled per ``(drift, bucket)`` cell.
    buckets:
        Per-alias word budgets (the text-size axis of Table III).
    drifts:
        Which drift settings to cover (subset of :data:`DRIFTS`).
    open_fraction:
        Fraction of episodes sampled *open* — the true author is held
        out of the panel, so the only correct behaviour is a score
        below threshold.
    features:
        Feature families used for both document construction and the
        linkers (see :class:`repro.config.FeatureConfig`).
    """

    seed: int = 7
    n_way: int = 8
    episodes_per_cell: int = 12
    buckets: Tuple[int, ...] = (300, 800)
    drifts: Tuple[str, ...] = DRIFTS
    open_fraction: float = 0.25
    features: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self) -> None:
        if self.n_way < 2:
            raise ConfigurationError(
                f"n_way must be >= 2, got {self.n_way}")
        if self.episodes_per_cell < 1:
            raise ConfigurationError(
                f"episodes_per_cell must be >= 1, "
                f"got {self.episodes_per_cell}")
        if not self.buckets:
            raise ConfigurationError("buckets must not be empty")
        if any(b < 1 for b in self.buckets):
            raise ConfigurationError(
                f"buckets must be positive, got {self.buckets}")
        if len(set(self.buckets)) != len(self.buckets):
            raise ConfigurationError(
                f"buckets must be distinct, got {self.buckets}")
        unknown = sorted(set(self.drifts) - set(DRIFTS))
        if unknown:
            raise ConfigurationError(
                f"unknown drifts {unknown}; choose from {list(DRIFTS)}")
        if not self.drifts:
            raise ConfigurationError("drifts must not be empty")
        if not 0.0 <= self.open_fraction <= 1.0:
            raise ConfigurationError(
                f"open_fraction must be in [0, 1], "
                f"got {self.open_fraction}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (pinned into manifests and goldens)."""
        return {
            "seed": self.seed,
            "n_way": self.n_way,
            "episodes_per_cell": self.episodes_per_cell,
            "buckets": list(self.buckets),
            "drifts": list(self.drifts),
            "open_fraction": self.open_fraction,
            "features": self.features.spec(),
        }


@dataclass(frozen=True)
class EpisodePool:
    """Refined documents one ``(drift, bucket)`` cell samples from.

    ``truth`` maps unknown doc_ids to the known doc_id of the same
    persona (absent keys are unlinkable unknowns, usable only for open
    episodes).
    """

    drift: str
    bucket: int
    known: Tuple[AliasDocument, ...]
    unknown: Tuple[AliasDocument, ...]
    truth: Dict[str, str]


@dataclass(frozen=True)
class Episode:
    """One N-way verification episode.

    ``true_id`` is the doc_id of the true author's panel entry, or
    ``None`` for an open episode (the true author was held out).
    """

    episode_id: str
    drift: str
    bucket: int
    unknown: AliasDocument
    candidates: Tuple[AliasDocument, ...]
    true_id: Optional[str]

    @property
    def closed(self) -> bool:
        return self.true_id is not None


@dataclass(frozen=True)
class EpisodeOutcome:
    """What one episode run produced.

    ``rank`` is the 1-based rank of the true candidate (closed
    episodes answered at full fidelity only).  ``skipped`` episodes
    were quarantined — they are excluded from the quality metrics and
    reported separately (honest accounting).
    """

    episode_id: str
    drift: str
    bucket: int
    best_id: str = ""
    best_score: float = 0.0
    accepted: bool = False
    true_id: Optional[str] = None
    rank: Optional[int] = None
    skipped: bool = False
    reason: str = ""

    @property
    def full_fidelity(self) -> bool:
        return not self.skipped

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "episode_id": self.episode_id,
            "drift": self.drift,
            "bucket": self.bucket,
            "best_id": self.best_id,
            "best_score": self.best_score,
            "accepted": self.accepted,
            "true_id": self.true_id,
            "rank": self.rank,
        }
        if self.skipped:
            data["skipped"] = True
            data["reason"] = self.reason
        return data


def cell_key(drift: str, bucket: int) -> str:
    """Canonical cell name used in reports and goldens."""
    return f"{drift}/w{bucket}"


# --------------------------------------------------------------------------
# Pool construction
# --------------------------------------------------------------------------

def _bucketed(documents: Sequence[AliasDocument], bucket: int,
              ) -> Tuple[AliasDocument, ...]:
    """Qualify doc_ids with the bucket so documents of the same alias
    built at different word budgets never collide in a shared
    :class:`~repro.perf.cache.ProfileCache`."""
    return tuple(replace(d, doc_id=f"{d.doc_id}@w{bucket}")
                 for d in documents)


def _refine(forum: Forum, bucket: int, features: FeatureConfig,
            profiles: Optional[Dict[str, np.ndarray]],
            ) -> Tuple[AliasDocument, ...]:
    documents = refine_forum(
        forum,
        words_per_alias=bucket,
        require_activity=features.activity,
        structure_profiles=profiles if features.structure else None,
    )
    return _bucketed(documents, bucket)


def world_pools(world: Any, config: EpisodeConfig) -> List[EpisodePool]:
    """Build the per-cell document pools of *world*.

    Documents are refined straight from the raw forums (synthetic text
    needs no polishing) at each bucket's word budget; ground truth
    comes from the world's :class:`~repro.synth.world.LinkedPair`
    records.  Structure profiles, when the family is enabled, are
    computed per source forum — the merged dark-web forum carries no
    threads, so its profiles are merged from the sources with
    alias re-keying.
    """
    from repro.synth.world import DM, REDDIT, TMG

    tmg = world.forum(TMG)
    dm = world.forum(DM)
    reddit = world.forum(REDDIT)
    dark = merge_forums("dark", [tmg, dm])
    profiles: Dict[str, Dict[str, np.ndarray]] = {}
    if config.features.structure:
        profiles = {
            TMG: structure_profiles(tmg),
            REDDIT: structure_profiles(reddit),
            "dark": merge_profile_maps(
                structure_profiles(tmg, alias_prefix=f"{TMG}/"),
                structure_profiles(dm, alias_prefix=f"{DM}/")),
        }
    pools: List[EpisodePool] = []
    for drift in config.drifts:
        if drift == "dark-dark":
            known_forum, unknown_forum = tmg, dm
            alias_truth = {
                f"{DM}/{a}": f"{TMG}/{b}"
                for a, b in world.linked_aliases(DM, TMG).items()
            }
            unknown_profiles = (structure_profiles(dm)
                                if config.features.structure else None)
        else:
            known_forum, unknown_forum = reddit, dark
            alias_truth = {}
            for source, name in ((tmg, TMG), (dm, DM)):
                for a, b in world.linked_aliases(name, REDDIT).items():
                    alias_truth[f"dark/{name}/{a}"] = f"{REDDIT}/{b}"
            unknown_profiles = profiles.get("dark")
        known_profiles = profiles.get(known_forum.name)
        for bucket in config.buckets:
            known = _refine(known_forum, bucket, config.features,
                            known_profiles)
            unknown = _refine(unknown_forum, bucket, config.features,
                              unknown_profiles)
            known_ids = {d.doc_id for d in known}
            truth = {}
            for u, k in alias_truth.items():
                uid = f"{u}@w{bucket}"
                kid = f"{k}@w{bucket}"
                if kid in known_ids:
                    truth[uid] = kid
            pools.append(EpisodePool(
                drift=drift, bucket=bucket,
                known=known, unknown=unknown, truth=truth))
    return pools


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------

def sample_from_pools(pools: Sequence[EpisodePool],
                      config: EpisodeConfig) -> List[Episode]:
    """Sample the episode suite from pre-built pools.

    Deterministic given ``config.seed``: every cell draws from its own
    rng substream, so adding a cell never disturbs another cell's
    episodes.  Closed episodes pick a linked unknown and plant its
    true author in the panel; open episodes pick an unlinkable unknown
    (or hold the author out when none exists).
    """
    episodes: List[Episode] = []
    for pool in pools:
        if len(pool.known) < 2:
            raise ConfigurationError(
                f"cell {cell_key(pool.drift, pool.bucket)} has "
                f"{len(pool.known)} known aliases; need >= 2")
        if not pool.unknown:
            raise ConfigurationError(
                f"cell {cell_key(pool.drift, pool.bucket)} has no "
                f"unknown aliases")
        rng = substream(config.seed, "episodes", pool.drift,
                        pool.bucket)
        known_by_id = {d.doc_id: d for d in pool.known}
        unknown_by_id = {d.doc_id: d for d in pool.unknown}
        linked = sorted(u for u in unknown_by_id
                        if pool.truth.get(u) in known_by_id)
        unlinked = sorted(u for u in unknown_by_id
                          if pool.truth.get(u) not in known_by_id)
        panel_ids = sorted(known_by_id)
        for number in range(config.episodes_per_cell):
            open_episode = rng.random() < config.open_fraction
            true_id: Optional[str] = None
            if open_episode and unlinked:
                uid = unlinked[int(rng.integers(len(unlinked)))]
            elif linked:
                uid = linked[int(rng.integers(len(linked)))]
                if open_episode:
                    # No unlinkable unknowns: hold the author out of
                    # the panel instead.
                    pass
                else:
                    true_id = pool.truth[uid]
            elif unlinked:
                uid = unlinked[int(rng.integers(len(unlinked)))]
            else:  # unreachable: pool.unknown is non-empty
                raise ConfigurationError(
                    f"cell {cell_key(pool.drift, pool.bucket)} has "
                    f"no sampleable unknowns")
            held_out = pool.truth.get(uid) if true_id is None else None
            distractors = [d for d in panel_ids
                           if d != true_id and d != held_out]
            n_distract = min(config.n_way - (1 if true_id else 0),
                             len(distractors))
            picks = rng.choice(len(distractors), size=n_distract,
                               replace=False)
            panel = [distractors[int(i)] for i in picks]
            if true_id is not None:
                panel.append(true_id)
            order = rng.permutation(len(panel))
            panel = [panel[int(i)] for i in order]
            episodes.append(Episode(
                episode_id=(f"{pool.drift}/w{pool.bucket}"
                            f"/e{number:03d}"),
                drift=pool.drift,
                bucket=pool.bucket,
                unknown=unknown_by_id[uid],
                candidates=tuple(known_by_id[c] for c in panel),
                true_id=true_id,
            ))
    return episodes


def sample_episodes(world: Any, config: EpisodeConfig) -> List[Episode]:
    """Sample a full episode suite from a synthetic world."""
    with span("eval.sample_episodes", seed=config.seed,
              n_way=config.n_way, cells=(len(config.drifts)
                                         * len(config.buckets))):
        pools = world_pools(world, config)
        episodes = sample_from_pools(pools, config)
    log.info("eval.sample_episodes", seed=config.seed,
             episodes=len(episodes))
    return episodes


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------

def manifest_dict(episodes: Sequence[Episode],
                  config: EpisodeConfig) -> Dict[str, Any]:
    """The identity of an episode suite, ready for canonical JSON.

    Contains the config plus every episode's ids — enough to prove
    two runs sampled exactly the same work, without carrying document
    text.
    """
    return {
        "config": config.to_dict(),
        "episodes": [
            {
                "episode_id": e.episode_id,
                "drift": e.drift,
                "bucket": e.bucket,
                "unknown": e.unknown.doc_id,
                "candidates": [d.doc_id for d in e.candidates],
                "true_id": e.true_id,
            }
            for e in sorted(episodes, key=lambda e: e.episode_id)
        ],
    }


def manifest_bytes(episodes: Sequence[Episode],
                   config: EpisodeConfig) -> bytes:
    """Canonical JSON encoding of :func:`manifest_dict`.

    Sorted keys, compact separators, UTF-8 — byte-identical across
    runs and platforms for the same seed.
    """
    return json.dumps(manifest_dict(episodes, config), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def manifest_digest(episodes: Sequence[Episode],
                    config: EpisodeConfig) -> str:
    """SHA-256 over :func:`manifest_bytes` (pinned into goldens)."""
    return hashlib.sha256(manifest_bytes(episodes, config)).hexdigest()


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------

@dataclass
class EpisodeReport:
    """Scores of one episode-suite run.

    ``cells`` maps :func:`cell_key` names to metric dicts; metrics are
    computed over full-fidelity episodes only, with skipped episodes
    counted per cell instead of polluting the averages.
    """

    variant: str
    features: str
    outcomes: List[EpisodeOutcome] = field(default_factory=list)
    cells: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def n_skipped(self) -> int:
        return sum(1 for o in self.outcomes if o.skipped)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "variant": self.variant,
            "features": self.features,
            "cells": self.cells,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def _warm_cache(cache: ProfileCache, documents: Sequence[AliasDocument],
                features: FeatureConfig) -> None:
    """Intern every document's profiles in sorted doc_id order.

    Word-id assignment happens at first sight of each word; warming in
    a canonical order makes the shared vocabulary — and therefore every
    downstream vector — independent of the order episodes are run in.
    """
    from repro.config import FINAL_FEATURES

    encoder = DocumentEncoder(cache=cache)
    for document in sorted({d.doc_id: d for d in documents}.values(),
                           key=lambda d: d.doc_id):
        encoder.word_profile(document)
        encoder.char_profile(document)
        encoder.freq_features(document)
        if features.activity:
            cache.activity_row(document, FINAL_FEATURES.activity_bins)
        if features.structure:
            cache.structure_row(document)


def _score_episode_full(episode: Episode, features: FeatureConfig,
                        threshold: float, cache: ProfileCache,
                        snapshot_dir: Optional[Path],
                        ) -> EpisodeOutcome:
    """Run the paper's two-stage linker over one episode panel."""
    linker = AliasLinker(
        k=len(episode.candidates),
        threshold=threshold,
        use_activity=features.activity,
        use_structure=features.structure,
        cache=cache,
    )
    linker.fit(list(episode.candidates))
    if snapshot_dir is not None:
        from repro.resilience.snapshot import load_index, save_index

        path = Path(snapshot_dir) / "episode.idx"
        save_index(linker, path)
        linker = load_index(path)
    result = linker.link([episode.unknown])
    if result.skipped:
        entry = result.skipped[0]
        return EpisodeOutcome(
            episode_id=episode.episode_id, drift=episode.drift,
            bucket=episode.bucket, true_id=episode.true_id,
            skipped=True, reason=f"{entry.stage}: {entry.reason}")
    match = result.matches[0]
    scored = result.candidate_scores[episode.unknown.doc_id]
    rank: Optional[int] = None
    if episode.true_id is not None:
        ids = [cid for cid, _ in scored]
        scores = np.asarray([s for _, s in scored], dtype=np.float64)
        rank = rank_of(scores, ids.index(episode.true_id))
    return EpisodeOutcome(
        episode_id=episode.episode_id, drift=episode.drift,
        bucket=episode.bucket, best_id=match.candidate_id,
        best_score=float(match.score), accepted=match.accepted,
        true_id=episode.true_id, rank=rank)


def _cell_corpora(episodes: Sequence[Episode],
                  ) -> Dict[str, List[AliasDocument]]:
    """Per-cell candidate unions, sorted by doc_id.

    The stage-1 variant fits its feature space on the whole cell
    corpus — like the real reduction stage does on the full known
    pool — rather than on each episode's panel (which would smuggle
    the restage's per-panel Idf sharpening back in).
    """
    corpora: Dict[str, Dict[str, AliasDocument]] = {}
    for episode in episodes:
        cell = cell_key(episode.drift, episode.bucket)
        pool = corpora.setdefault(cell, {})
        for document in episode.candidates:
            pool[document.doc_id] = document
    return {cell: [pool[doc_id] for doc_id in sorted(pool)]
            for cell, pool in corpora.items()}


def _score_episode_stage1(episode: Episode,
                          attributor: KAttributor,
                          corpus_index: Dict[str, int],
                          threshold: float) -> EpisodeOutcome:
    """Score one episode with the reduction stage alone.

    This is the deliberately degraded variant the golden gate must
    catch: stage-1 cosines over the cell-wide feature space lack the
    restaged per-panel Idf sharpening, so its scores (and, under
    drift, its ranking) measurably trail the full pipeline.
    """
    all_scores = attributor.scores([episode.unknown])[0]
    panel_ids = [d.doc_id for d in episode.candidates]
    scores = np.asarray([all_scores[corpus_index[doc_id]]
                         for doc_id in panel_ids], dtype=np.float64)
    best = int(np.argmax(scores))
    best_score = float(scores[best])
    rank: Optional[int] = None
    if episode.true_id is not None:
        rank = rank_of(scores, panel_ids.index(episode.true_id))
    return EpisodeOutcome(
        episode_id=episode.episode_id, drift=episode.drift,
        bucket=episode.bucket,
        best_id=panel_ids[best],
        best_score=best_score,
        accepted=best_score >= threshold,
        true_id=episode.true_id, rank=rank)


def _cell_metrics(outcomes: Sequence[EpisodeOutcome]) -> Dict[str, float]:
    """Quality metrics of one cell (full-fidelity outcomes only).

    Aggregated in episode_id order so the float summation order — and
    therefore every metric bit — is independent of run order.
    """
    outcomes = sorted(outcomes, key=lambda o: o.episode_id)
    full = [o for o in outcomes if o.full_fidelity]
    closed = [o for o in full if o.true_id is not None]
    scores = [o.best_score for o in full]
    labels = [o.true_id is not None and o.best_id == o.true_id
              for o in full]
    auc = pr_curve(scores, labels, n_positive=len(closed)).auc() \
        if closed else 0.0
    ranks = [o.rank for o in closed if o.rank is not None]
    brier = float(np.mean([
        (min(max(o.best_score, 0.0), 1.0) - float(label)) ** 2
        for o, label in zip(full, labels)])) if full else 0.0
    return {
        "auc": auc,
        "accuracy_at_1": accuracy_at_k(ranks, 1) if ranks else 0.0,
        "accuracy_at_3": accuracy_at_k(ranks, 3) if ranks else 0.0,
        "brier": brier,
        "n_episodes": float(len(outcomes)),
        "n_full": float(len(full)),
        "n_closed": float(len(closed)),
        "n_skipped": float(sum(1 for o in outcomes if o.skipped)),
    }


def run_episodes(episodes: Sequence[Episode],
                 features: FeatureConfig | None = None,
                 variant: str = "full",
                 threshold: float = PAPER_THRESHOLD,
                 snapshot_dir: Optional[Union[str, Path]] = None,
                 cache: Optional[ProfileCache] = None) -> EpisodeReport:
    """Score an episode suite with a configured linker variant.

    Parameters
    ----------
    features:
        Feature families for the linkers; must match the families the
        episodes' documents were built with.
    variant:
        ``"full"`` runs the paper's two-stage linker; ``"stage1"``
        scores with the reduction stage alone (the deliberately
        degraded variant the golden gate must reject).
    threshold:
        Acceptance threshold on the best-candidate score.
    snapshot_dir:
        When set, every fitted linker is saved to and reloaded from
        an index snapshot in this directory before scoring — the
        round-trip must be invisible in the scores.
    cache:
        Optional shared :class:`~repro.perf.cache.ProfileCache`.  By
        default every full-variant episode runs on its own fresh
        cache — bit-identical to running the two-stage linker
        standalone on that panel, and trivially invariant under
        episode reordering.  Pass a cache to share profile work
        across overlapping panels instead (scores may then differ in
        the last float bit, because word interning order changes
        summation order).  The stage-1 variant always shares one
        cache, pre-warmed in canonical doc_id order so its scores
        stay order-invariant too.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {variant!r}; choose from {list(VARIANTS)}")
    features = features or FeatureConfig()
    episodes = list(episodes)
    shared = cache
    if shared is None and variant == "stage1":
        shared = ProfileCache()
    documents: List[AliasDocument] = []
    for episode in episodes:
        documents.append(episode.unknown)
        documents.extend(episode.candidates)
    report = EpisodeReport(variant=variant, features=features.spec())
    with span("eval.run_episodes", n_episodes=len(episodes),
              variant=variant, features=features.spec()):
        if shared is not None:
            _warm_cache(shared, documents, features)
        attributors: Dict[str, Tuple[KAttributor, Dict[str, int]]] = {}
        if variant == "stage1":
            for cell, corpus in _cell_corpora(episodes).items():
                attributor = KAttributor(
                    k=len(corpus),
                    use_activity=features.activity,
                    use_structure=features.structure,
                    encoder=DocumentEncoder(cache=shared),
                )
                attributor.fit(corpus)
                attributors[cell] = (attributor, {
                    d.doc_id: i for i, d in enumerate(corpus)})
        by_cell: Dict[str, List[EpisodeOutcome]] = {}
        for episode in episodes:
            with span("eval.episode", episode=episode.episode_id,
                      variant=variant, n_way=len(episode.candidates)):
                if variant == "stage1":
                    attributor, corpus_index = attributors[
                        cell_key(episode.drift, episode.bucket)]
                    outcome = _score_episode_stage1(
                        episode, attributor, corpus_index, threshold)
                else:
                    outcome = _score_episode_full(
                        episode, features, threshold,
                        shared if shared is not None
                        else ProfileCache(),
                        Path(snapshot_dir)
                        if snapshot_dir is not None else None)
            _EPISODES_RUN.inc()
            if outcome.skipped:
                _EPISODES_SKIPPED.inc()
            report.outcomes.append(outcome)
            by_cell.setdefault(
                cell_key(episode.drift, episode.bucket),
                []).append(outcome)
        report.cells = {key: _cell_metrics(outcomes)
                        for key, outcomes in sorted(by_cell.items())}
    log.info("eval.run_episodes", variant=variant,
             episodes=len(episodes), skipped=report.n_skipped)
    return report


# --------------------------------------------------------------------------
# Golden episodes
# --------------------------------------------------------------------------

#: Episode config of the committed golden suite.  n_way=8 panels over
#: a 400/1200-word bucket axis give the two-stage pipeline and the
#: stage-1-only variant measurably different per-cell scores, which is
#: what lets the golden gate reject a silently degraded linker.
GOLDEN_CONFIG = EpisodeConfig(seed=11, n_way=8, episodes_per_cell=10,
                              buckets=(400, 1200))


def golden_world_config() -> Any:
    """World recipe behind the golden suite (dense enough that every
    cell clears the refinement floors at both buckets, small enough
    for CI)."""
    from repro.synth.world import ForumLoad, WorldConfig

    load = dict(heavy_fraction=0.85, heavy_messages=(120, 180),
                light_messages=(5, 25))
    return WorldConfig(
        seed=11, reddit_users=60, tmg_users=30, dm_users=22,
        tmg_dm_overlap=10, reddit_dark_overlap=12,
        reddit_load=ForumLoad(heavy_fraction=0.8,
                              heavy_messages=(120, 180),
                              light_messages=(5, 25)),
        tmg_load=ForumLoad(message_length_factor=1.4, **load),
        dm_load=ForumLoad(**load),
    )


def golden_suite(features: FeatureConfig | None = None,
                 ) -> Tuple[List[Episode], EpisodeConfig]:
    """Build the canonical golden world and sample its episode suite.

    The CLI, the tests and the CI smoke job all go through here, so
    they gate against literally the same episodes.
    """
    config = GOLDEN_CONFIG if features is None \
        else replace(GOLDEN_CONFIG, features=features)
    from repro.synth.world import build_world

    world = build_world(golden_world_config())
    return sample_episodes(world, config), config


def golden_payload(report: EpisodeReport, episodes: Sequence[Episode],
                   config: EpisodeConfig) -> Dict[str, Any]:
    """What the committed golden file records for one suite."""
    return {
        "config": config.to_dict(),
        "manifest_sha256": manifest_digest(episodes, config),
        "variant": report.variant,
        "cells": report.cells,
    }


def write_golden(path: Union[str, Path], report: EpisodeReport,
                 episodes: Sequence[Episode],
                 config: EpisodeConfig) -> Dict[str, Any]:
    """Write (or refresh) the golden suite at *path*."""
    payload = golden_payload(report, episodes, config)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")
    return payload


def check_golden(path: Union[str, Path], report: EpisodeReport,
                 episodes: Sequence[Episode], config: EpisodeConfig,
                 tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Compare a run against the committed golden suite.

    Returns a list of human-readable breaches (empty = the run is
    within tolerance).  A manifest digest mismatch is itself a breach:
    scores are only comparable over identical episodes.
    """
    if tolerance < 0:
        raise ConfigurationError(
            f"tolerance must be >= 0, got {tolerance}")
    golden_path = Path(path)
    try:
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetError(
            f"golden episode file not found: {golden_path} (write one "
            "with `darklight eval episodes --write-golden`)") from None
    except json.JSONDecodeError as exc:
        raise DatasetError(
            f"golden episode file {golden_path} is not valid JSON: "
            f"{exc}") from exc
    breaches: List[str] = []
    digest = manifest_digest(episodes, config)
    if golden.get("manifest_sha256") != digest:
        breaches.append(
            f"manifest drift: golden {golden.get('manifest_sha256')} "
            f"!= run {digest}")
    golden_cells = golden.get("cells", {})
    for key in sorted(set(golden_cells) | set(report.cells)):
        if key not in report.cells:
            breaches.append(f"{key}: cell missing from run")
            continue
        if key not in golden_cells:
            breaches.append(f"{key}: cell missing from golden")
            continue
        for metric in GOLDEN_METRICS:
            expected = float(golden_cells[key].get(metric, 0.0))
            actual = float(report.cells[key].get(metric, 0.0))
            if abs(actual - expected) > tolerance:
                breaches.append(
                    f"{key}: {metric} {actual:.4f} vs golden "
                    f"{expected:.4f} (tolerance {tolerance:g})")
    return breaches
