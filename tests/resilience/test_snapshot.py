"""Crash-safe index snapshots (repro.resilience.snapshot).

The acceptance criterion of the snapshot layer:
``link(load(save(fit(world))))`` is bit-identical to
``link(fit(world))`` for both linker flavors, and any torn write, bit
flip or truncation is either healed (verified load) or reported as a
typed :class:`~repro.errors.SnapshotError` naming the damaged section.
"""

import json

import pytest

from repro.core.batch import BatchedLinker
from repro.core.incremental import IncrementalLinker
from repro.core.linker import AliasLinker
from repro.errors import ConfigurationError, NotFittedError, \
    SnapshotError
from repro.resilience.faults import FaultPlan, install_fault_plan
from repro.resilience.snapshot import (
    SNAPSHOT_MAGIC,
    load_index,
    salvage_index,
    save_index,
    snapshot_info,
    verify_index,
)


@pytest.fixture(scope="module")
def corpus(reddit_alter_egos):
    return (reddit_alter_egos.originals,
            reddit_alter_egos.alter_egos[:6])


def _result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestRoundTrip:
    def test_alias_linker_bit_identical(self, corpus, tmp_path):
        known, unknowns = corpus
        linker = AliasLinker(threshold=0.0).fit(known)
        direct = linker.link(unknowns)
        path = tmp_path / "alias.snap"
        info = save_index(linker, path)
        assert info["bytes"] == path.stat().st_size
        loaded = load_index(path)
        assert _result_json(loaded.link(unknowns)) == \
            _result_json(direct)

    def test_batched_linker_bit_identical(self, corpus, tmp_path):
        known, unknowns = corpus
        linker = BatchedLinker(batch_size=20, k=5,
                               threshold=0.0).fit(known)
        direct = linker.link(unknowns)
        path = tmp_path / "batched.snap"
        save_index(linker, path)
        loaded = load_index(path)
        assert isinstance(loaded, BatchedLinker)
        assert loaded.batch_size == 20
        assert _result_json(loaded.link(unknowns)) == \
            _result_json(direct)

    @pytest.mark.parametrize("kwargs", [
        {"workers": 2},
        {"block_size": 8},
        {"cache": False},
        {"workers": 3, "block_size": 16, "cache": True},
    ])
    def test_load_variations_bit_identical(self, corpus, tmp_path,
                                           kwargs):
        """Perf knobs at load time never change the numbers."""
        known, unknowns = corpus
        linker = AliasLinker(threshold=0.0).fit(known)
        direct = linker.link(unknowns)
        path = tmp_path / "alias.snap"
        save_index(linker, path)
        loaded = load_index(path, **kwargs)
        assert _result_json(loaded.link(unknowns)) == \
            _result_json(direct)

    def test_mmap_and_copy_loads_agree(self, corpus, tmp_path):
        known, unknowns = corpus
        linker = AliasLinker(threshold=0.0).fit(known)
        path = tmp_path / "alias.snap"
        save_index(linker, path)
        a = load_index(path, mmap=True).link(unknowns)
        b = load_index(path, mmap=False).link(unknowns)
        assert _result_json(a) == _result_json(b)

    def test_no_stray_temp_files(self, corpus, tmp_path):
        known, _ = corpus
        save_index(AliasLinker(threshold=0.0).fit(known),
                   tmp_path / "clean.snap")
        assert [p.name for p in tmp_path.iterdir()] == ["clean.snap"]

    def test_unfitted_linker_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_index(AliasLinker(), tmp_path / "nope.snap")

    def test_incremental_linker_rejected(self, corpus, tmp_path):
        """An AliasLinker subclass, but its appended rows and staleness
        have no snapshot form."""
        known, _ = corpus
        linker = IncrementalLinker(threshold=0.4).fit(known)
        with pytest.raises(ConfigurationError, match="IncrementalLinker"):
            save_index(linker, tmp_path / "nope.snap")
        assert not (tmp_path / "nope.snap").exists()


def _write_legacy_snapshot(linker, path):
    """Write *linker* the way older builds did with the inverted-index
    stage 1: two shards of posting sections plus ``config["stage1"]``.

    A plain write: the file is the test's input, so the filesystem
    faults of a chaos run must not hit it (the loads still see them).
    """
    import numpy as np

    from repro.resilience.snapshot import _collect_state, \
        _encode_snapshot

    algo, config, sections = _collect_state(linker)
    config["stage1"] = "invindex"
    matrix = linker.reducer._known_matrix
    n_docs = matrix.shape[0]
    bounds = [0, n_docs // 2, n_docs]
    sections.append(("invindex.meta", "json",
                     {"bounds": bounds, "n_shards": 2,
                      "main_ends": bounds[1:]}))
    for i in range(2):
        shard = matrix[bounds[i]:bounds[i + 1]].tocsc()
        maxw = np.asarray(abs(shard).max(axis=0).todense(),
                          dtype=np.float32).ravel()
        sections.extend([
            (f"invindex.shard{i}.data", "ndarray",
             shard.data.astype(np.float32)),
            (f"invindex.shard{i}.rows", "ndarray",
             shard.indices.astype(np.int32)),
            (f"invindex.shard{i}.indptr", "ndarray",
             shard.indptr.astype(np.int64)),
            (f"invindex.shard{i}.maxw", "ndarray", maxw),
        ])
    path.write_bytes(_encode_snapshot(algo, config, sections))


class TestInvindexSnapshot:
    """Snapshots written by older builds with the inverted-index stage
    1 still verify and load; their posting sections are ignored."""

    @pytest.fixture(scope="class")
    def baseline(self, corpus):
        known, unknowns = corpus
        linker = AliasLinker(threshold=0.0).fit(known)
        return _result_json(linker.link(unknowns))

    @pytest.fixture()
    def snap(self, corpus, tmp_path):
        known, _ = corpus
        path = tmp_path / "invindex.snap"
        _write_legacy_snapshot(AliasLinker(threshold=0.0).fit(known),
                               path)
        return path

    def test_invindex_snapshot_verifies(self, snap, capsys):
        from repro.cli import main

        report = verify_index(snap)
        assert report.ok
        info = snapshot_info(snap)
        assert info["config"]["stage1"] == "invindex"
        names = {s["name"] for s in info["sections"]}
        assert "invindex.meta" in names
        assert "invindex.shard0.data" in names
        assert "invindex.shard1.maxw" in names
        assert main(["index", "info", str(snap)]) == 0
        assert "algo: alias-linker" in capsys.readouterr().out

    def test_load_ignores_postings(self, corpus, snap, baseline):
        _, unknowns = corpus
        loaded = load_index(snap)
        assert _result_json(loaded.link(unknowns)) == baseline

    def test_mmap_load_bit_identical(self, corpus, snap, baseline):
        _, unknowns = corpus
        for mmap in (True, False):
            loaded = load_index(snap, mmap=mmap)
            assert _result_json(loaded.link(unknowns)) == baseline

    def test_damaged_posting_section_is_named(self, snap, tmp_path):
        header = snapshot_info(snap)
        entry = next(s for s in header["sections"]
                     if s["name"] == "invindex.shard1.maxw")
        data_start = header["expected_bytes"] - max(
            s["offset"] + s["nbytes"] for s in header["sections"])
        blob = bytearray(snap.read_bytes())
        blob[data_start + entry["offset"] + entry["nbytes"] // 2] ^= 0x10
        bad = tmp_path / "damaged.snap"
        bad.write_bytes(bytes(blob))
        assert verify_index(bad).damaged() == ["invindex.shard1.maxw"]
        with pytest.raises(SnapshotError) as exc:
            load_index(bad)
        assert exc.value.section == "invindex.shard1.maxw"

    def test_new_snapshots_carry_no_postings(self, corpus, tmp_path):
        known, _ = corpus
        path = tmp_path / "fresh.snap"
        save_index(AliasLinker(threshold=0.0).fit(known), path)
        info = snapshot_info(path)
        assert "stage1" not in info["config"]
        assert not [s for s in info["sections"]
                    if s["name"].startswith("invindex.")]


class TestVerify:
    @pytest.fixture(scope="class")
    def snap(self, corpus, tmp_path_factory):
        known, _ = corpus
        path = tmp_path_factory.mktemp("verify") / "idx.snap"
        save_index(AliasLinker(threshold=0.0).fit(known), path)
        return path

    def test_pristine_file_verifies(self, snap):
        report = verify_index(snap)
        assert report.ok
        assert report.damaged() == []
        assert all(s.ok for s in report.sections)

    def test_info_reads_header_only(self, snap):
        header = snapshot_info(snap)
        assert header["format_version"] == 1
        assert header["algo"] == "alias-linker"
        assert len(header["config_digest"]) == 64
        assert header["file_bytes"] >= header["expected_bytes"]

    def test_bit_flip_names_the_section(self, snap, tmp_path):
        blob = bytearray(snap.read_bytes())
        header = snapshot_info(snap)
        # Flip one bit in the middle of the last section's payload.
        target = header["sections"][-1]
        start = header["expected_bytes"] - target["nbytes"]
        blob[start + target["nbytes"] // 2] ^= 0x10
        bad = tmp_path / "flipped.snap"
        bad.write_bytes(bytes(blob))
        report = verify_index(bad)
        assert report.damaged() == [target["name"]]
        with pytest.raises(SnapshotError) as exc:
            load_index(bad)
        assert exc.value.section == target["name"]

    def test_truncated_tail_reported_and_salvageable(self, snap,
                                                     tmp_path):
        blob = snap.read_bytes()
        cut = tmp_path / "torn.snap"
        cut.write_bytes(blob[:int(len(blob) * 0.9)])
        report = verify_index(cut)
        assert not report.ok
        damaged = set(report.damaged())
        assert damaged
        sections, sreport = salvage_index(cut)
        assert set(sections) == {
            s.name for s in sreport.sections if s.ok}
        assert damaged.isdisjoint(sections)
        # The intact prefix is fully recovered.
        assert "documents" in sections and "vocab" in sections

    def test_garbage_file_raises_typed_error(self, tmp_path):
        junk = tmp_path / "junk.snap"
        junk.write_bytes(b"definitely not " + SNAPSHOT_MAGIC)
        with pytest.raises(SnapshotError):
            verify_index(junk)
        with pytest.raises(SnapshotError):
            snapshot_info(junk)

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_index(tmp_path / "absent.snap")


@pytest.fixture(scope="module")
def structure_suite(world):
    """A small episode suite built with all three feature families."""
    from repro.config import FeatureConfig
    from repro.eval.episodes import EpisodeConfig, sample_episodes

    config = EpisodeConfig(
        seed=5, n_way=4, episodes_per_cell=3, buckets=(300,),
        features=FeatureConfig.from_spec(
            "stylometry,activity,structure"))
    return sample_episodes(world, config), config


class TestStructureRoundTrip:
    """The structure feature family must survive save/load unharmed:
    a reloaded linker scores episodes bit-identically to the fitted
    one it was snapshotted from."""

    def test_structure_linker_save_load_bit_identical(
            self, structure_suite, tmp_path):
        episodes, _ = structure_suite
        episode = episodes[0]
        linker = AliasLinker(k=len(episode.candidates), threshold=0.0,
                             use_structure=True)
        linker.fit(list(episode.candidates))
        direct = linker.link([episode.unknown])
        path = tmp_path / "structure.snap"
        save_index(linker, path)
        loaded = load_index(path)
        assert loaded.use_structure is True
        assert _result_json(loaded.link([episode.unknown])) \
            == _result_json(direct)

    def test_episode_run_through_snapshots_bit_identical(
            self, structure_suite, tmp_path):
        """run_episodes(snapshot_dir=...) saves and reloads every
        fitted linker; the round-trip must be invisible in every
        outcome and cell metric."""
        import json as _json

        from repro.eval.episodes import run_episodes

        episodes, config = structure_suite
        direct = run_episodes(episodes, features=config.features)
        via_snapshot = run_episodes(episodes, features=config.features,
                                    snapshot_dir=tmp_path)
        assert _json.dumps(direct.to_dict(), sort_keys=True) \
            == _json.dumps(via_snapshot.to_dict(), sort_keys=True)
        assert direct.n_skipped == 0

    def test_structure_free_snapshot_still_loads(self, corpus,
                                                 tmp_path):
        """Back-compat: snapshots written without the structure family
        load into a linker with the family off."""
        known, unknowns = corpus
        linker = AliasLinker(threshold=0.0).fit(known)
        path = tmp_path / "plain.snap"
        save_index(linker, path)
        loaded = load_index(path)
        assert loaded.use_structure is False
        assert _result_json(loaded.link(unknowns)) \
            == _result_json(linker.link(unknowns))


class TestUnderFsFaults:
    @pytest.fixture
    def fs_chaos(self):
        plan = FaultPlan(seed=1, torn_rate=0.3, enospc_rate=0.3,
                         read_corrupt_rate=0.3)
        previous = install_fault_plan(plan)
        yield plan
        install_fault_plan(previous)

    def test_save_load_cycle_survives_injection(self, corpus,
                                                tmp_path, fs_chaos):
        """Torn writes, ENOSPC and read bit flips at 30% are absorbed
        by retries; the loaded linker still links bit-identically."""
        known, unknowns = corpus
        linker = AliasLinker(threshold=0.0).fit(known)
        install_fault_plan(None)
        direct = linker.link(unknowns)
        install_fault_plan(fs_chaos)
        for round_no in range(3):
            path = tmp_path / f"chaos{round_no}.snap"
            save_index(linker, path)
            assert verify_index(path).ok
            loaded = load_index(path)
            install_fault_plan(None)
            replay = loaded.link(unknowns)
            install_fault_plan(fs_chaos)
            assert _result_json(replay) == _result_json(direct)
        assert fs_chaos.injected > 0, \
            "the chaos run never actually saw a fault"
