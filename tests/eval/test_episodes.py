"""Episode-style evaluation harness (repro.eval.episodes)."""

import json

import numpy as np
import pytest

from repro.config import FeatureConfig
from repro.core.documents import AliasDocument
from repro.core.linker import AliasLinker
from repro.errors import ConfigurationError
from repro.eval.episodes import (
    DRIFTS,
    Episode,
    EpisodeConfig,
    EpisodeOutcome,
    EpisodePool,
    cell_key,
    manifest_bytes,
    manifest_dict,
    manifest_digest,
    run_episodes,
    sample_from_pools,
    world_pools,
)


def _make_docs(n, seed, prefix):
    """Synthetic alias documents; ``u{i}`` shares ``k{i}``'s
    sub-vocabulary so closed episodes have a linkable ground truth."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f"tok{i:04d}" for i in range(800)])
    docs = []
    for i in range(n):
        start = (i * 37) % 500
        words = tuple(rng.choice(vocab[start:start + 300], size=150))
        activity = rng.random(24)
        docs.append(AliasDocument(
            doc_id=f"{prefix}{i}", alias=f"{prefix}{i}", forum=prefix,
            text=" ".join(words), words=words, timestamps=(),
            activity=activity / activity.sum()))
    return docs


@pytest.fixture(scope="module")
def synth_pool():
    known = _make_docs(20, seed=11, prefix="k")
    unknown = _make_docs(10, seed=12, prefix="u")
    truth = {f"u{i}": f"k{i}" for i in range(10)}
    return EpisodePool(drift="dark-dark", bucket=200,
                       known=tuple(known), unknown=tuple(unknown),
                       truth=truth)


@pytest.fixture(scope="module")
def synth_config():
    return EpisodeConfig(seed=5, n_way=4, episodes_per_cell=6,
                         buckets=(200,))


@pytest.fixture(scope="module")
def synth_episodes(synth_pool, synth_config):
    return sample_from_pools([synth_pool], synth_config)


class TestEpisodeConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_way": 1},
        {"episodes_per_cell": 0},
        {"buckets": ()},
        {"buckets": (0,)},
        {"buckets": (300, 300)},
        {"drifts": ("sideways",)},
        {"drifts": ()},
        {"open_fraction": -0.1},
        {"open_fraction": 1.5},
    ])
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EpisodeConfig(**kwargs)

    def test_to_dict_is_json_scalars(self):
        data = EpisodeConfig().to_dict()
        assert data["drifts"] == list(DRIFTS)
        assert data["features"] == "stylometry,activity"
        json.dumps(data)  # must not raise

    def test_cell_key_format(self):
        assert cell_key("dark-dark", 300) == "dark-dark/w300"


class TestSampling:
    def test_panel_shape(self, synth_episodes, synth_config):
        assert len(synth_episodes) == synth_config.episodes_per_cell
        for episode in synth_episodes:
            assert len(episode.candidates) <= synth_config.n_way
            panel_ids = {d.doc_id for d in episode.candidates}
            assert len(panel_ids) == len(episode.candidates)
            assert episode.unknown.doc_id not in panel_ids

    def test_closed_episodes_plant_the_author(self, synth_episodes,
                                              synth_pool):
        closed = [e for e in synth_episodes if e.closed]
        assert closed
        for episode in closed:
            panel_ids = {d.doc_id for d in episode.candidates}
            assert episode.true_id in panel_ids
            assert synth_pool.truth[episode.unknown.doc_id] \
                == episode.true_id

    def test_open_episodes_hold_the_author_out(self, synth_episodes,
                                               synth_pool):
        for episode in synth_episodes:
            if episode.closed:
                continue
            held_out = synth_pool.truth.get(episode.unknown.doc_id)
            panel_ids = {d.doc_id for d in episode.candidates}
            assert held_out not in panel_ids

    def test_sampling_deterministic(self, synth_pool, synth_config,
                                    synth_episodes):
        again = sample_from_pools([synth_pool], synth_config)
        assert manifest_bytes(again, synth_config) \
            == manifest_bytes(synth_episodes, synth_config)

    def test_other_seed_samples_other_episodes(self, synth_pool,
                                               synth_config,
                                               synth_episodes):
        from dataclasses import replace

        other = replace(synth_config, seed=synth_config.seed + 1)
        sampled = sample_from_pools([synth_pool], other)
        assert manifest_dict(sampled, other)["episodes"] \
            != manifest_dict(synth_episodes, synth_config)["episodes"]

    def test_undersized_pool_rejected(self, synth_config):
        (doc,) = _make_docs(1, seed=1, prefix="k")
        pool = EpisodePool(drift="dark-dark", bucket=200,
                           known=(doc,), unknown=(doc,), truth={})
        with pytest.raises(ConfigurationError):
            sample_from_pools([pool], synth_config)

    def test_manifest_digest_is_sha256(self, synth_episodes,
                                       synth_config):
        digest = manifest_digest(synth_episodes, synth_config)
        assert len(digest) == 64
        assert digest == manifest_digest(synth_episodes, synth_config)


class TestWorldPools:
    def test_cells_cover_drifts_and_buckets(self, world):
        config = EpisodeConfig(seed=5, n_way=4, episodes_per_cell=2,
                               buckets=(300,))
        pools = world_pools(world, config)
        cells = {(p.drift, p.bucket) for p in pools}
        assert cells == {("dark-dark", 300), ("open-dark", 300)}
        for pool in pools:
            assert len(pool.known) >= 2
            assert pool.unknown
            # doc_ids are bucket-qualified so buckets never collide
            # in a shared profile cache.
            assert all(d.doc_id.endswith("@w300") for d in pool.known)
            for uid, kid in pool.truth.items():
                assert uid in {d.doc_id for d in pool.unknown}
                assert kid in {d.doc_id for d in pool.known}


class TestRunner:
    def test_unknown_variant_rejected(self, synth_episodes):
        with pytest.raises(ConfigurationError):
            run_episodes(synth_episodes, variant="stage3")

    def test_full_run_scores_every_episode(self, synth_episodes):
        report = run_episodes(synth_episodes)
        assert len(report.outcomes) == len(synth_episodes)
        assert report.n_skipped == 0
        cell = report.cells["dark-dark/w200"]
        assert cell["n_episodes"] == len(synth_episodes)
        assert cell["n_full"] == len(synth_episodes)
        for outcome in report.outcomes:
            assert outcome.best_id
            assert 0.0 <= outcome.best_score <= 1.0 + 1e-9
            if outcome.true_id is not None:
                assert outcome.rank >= 1

    def test_stage1_covers_the_same_episodes(self, synth_episodes):
        full = run_episodes(synth_episodes)
        stage1 = run_episodes(synth_episodes, variant="stage1")
        assert [o.episode_id for o in stage1.outcomes] \
            == [o.episode_id for o in full.outcomes]
        assert stage1.n_skipped == 0
        assert stage1.cells["dark-dark/w200"]["n_full"] \
            == len(synth_episodes)

    def test_outcome_serialization_is_conditional(self):
        clean = EpisodeOutcome(episode_id="e", drift="dark-dark",
                               bucket=200)
        assert "skipped" not in clean.to_dict()
        assert clean.full_fidelity
        hurt = EpisodeOutcome(episode_id="e", drift="dark-dark",
                              bucket=200, skipped=True,
                              reason="attribute: boom")
        assert hurt.to_dict()["reason"] == "attribute: boom"
        assert not hurt.full_fidelity

    def test_failing_stage2_quarantines_episodes(self, synth_episodes,
                                                 monkeypatch):
        """Skipped episodes are counted per cell and kept out of the
        quality metrics, which read 0 rather than numbers computed
        from no evidence."""
        def broken(self, unknown, candidates):
            raise RuntimeError("boom")

        monkeypatch.setattr(AliasLinker, "_stage2_vectors", broken)
        report = run_episodes(synth_episodes)
        assert report.n_skipped == len(synth_episodes)
        for outcome in report.outcomes:
            assert outcome.skipped
            assert outcome.reason.startswith("attribute")
            assert outcome.rank is None
        for metrics in report.cells.values():
            assert metrics["n_skipped"] == metrics["n_episodes"]
            assert metrics["n_full"] == 0.0
            assert metrics["auc"] == 0.0
            assert metrics["brier"] == 0.0

    def test_report_round_trips_through_json(self, synth_episodes):
        report = run_episodes(synth_episodes)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["variant"] == "full"
        assert len(data["outcomes"]) == len(synth_episodes)
