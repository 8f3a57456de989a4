"""CLI tests: index build/verify/info and link --index.

A snapshot built once by ``index build`` is linked against via
``link --index`` and must print exactly what ``link --known`` prints
for the same world — the cold-start contract, end to end through the
CLI.
"""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("index-world")
    code = main([
        "generate", "--out", str(out), "--seed", "17",
        "--reddit-users", "26", "--tmg-users", "12", "--dm-users", "10",
        "--tmg-dm-overlap", "4", "--reddit-dark-overlap", "0",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def snapshot(world_dir, tmp_path_factory):
    snap = tmp_path_factory.mktemp("index-snap") / "dm.snap"
    code = main(["index", "build",
                 "--known", str(world_dir / "dm.jsonl"),
                 "--out", str(snap)])
    assert code == 0
    assert snap.exists()
    return snap


class TestIndexBuild:
    def test_build_reports_summary(self, world_dir, snapshot,
                                   capsys):
        # Rebuild so this test owns its own captured output.
        out = snapshot.with_name("again.snap")
        code = main(["index", "build",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "wrote" in captured
        assert "sections" in captured
        assert "known aliases" in captured
        assert out.stat().st_size > 0

    def test_rebuild_is_deterministic(self, snapshot):
        again = snapshot.with_name("again.snap")
        assert again.read_bytes() == snapshot.read_bytes()


class TestIndexVerify:
    def test_pristine_snapshot_verifies(self, snapshot, capsys):
        code = main(["index", "verify", str(snapshot)])
        captured = capsys.readouterr()
        assert code == 0
        assert "sections verified" in captured.out
        assert "DAMAGED" not in captured.out

    def test_corrupted_snapshot_fails(self, snapshot, tmp_path,
                                      capsys):
        from repro.resilience.snapshot import snapshot_info

        blob = bytearray(snapshot.read_bytes())
        section = snapshot_info(snapshot)["sections"][-1]
        start = snapshot_info(snapshot)["expected_bytes"] \
            - section["nbytes"]
        blob[start + section["nbytes"] // 2] ^= 0xFF
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(blob))
        code = main(["index", "verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "DAMAGED" in captured.out
        assert "damaged section" in captured.err

    def test_garbage_file_is_typed_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.snap"
        junk.write_bytes(b"not a snapshot at all")
        code = main(["index", "verify", str(junk)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestIndexInfo:
    def test_info_prints_header(self, snapshot, capsys):
        code = main(["index", "info", str(snapshot)])
        out = capsys.readouterr().out
        assert code == 0
        assert "format_version: 1" in out
        assert "algo: alias-linker" in out
        assert "config_digest:" in out
        assert "config.threshold:" in out
        assert "sections:" in out


class TestLinkWithIndex:
    def _link_known(self, world_dir, capsys):
        code = main(["link",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--unknown", str(world_dir / "tmg.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        return out

    def _link_index(self, world_dir, snapshot, capsys, *extra):
        code = main(["link",
                     "--index", str(snapshot),
                     "--unknown", str(world_dir / "tmg.jsonl"),
                     *extra])
        out = capsys.readouterr().out
        assert code == 0
        return out

    def test_cold_load_output_identical(self, world_dir, snapshot,
                                        capsys):
        warm = self._link_known(world_dir, capsys)
        cold = self._link_index(world_dir, snapshot, capsys)
        assert cold == warm

    def test_batched_cold_load_output_identical(self, world_dir,
                                                tmp_path, capsys):
        snap = tmp_path / "batched.snap"
        assert main(["index", "build",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--out", str(snap), "--batch-size", "11"]) == 0
        capsys.readouterr()
        warm = main(["link",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--unknown", str(world_dir / "tmg.jsonl"),
                     "--batch-size", "11", "--json"])
        out_warm = capsys.readouterr().out
        cold = main(["link", "--index", str(snap),
                     "--unknown", str(world_dir / "tmg.jsonl"),
                     "--json"])
        out_cold = capsys.readouterr().out
        assert warm == cold == 0
        assert out_cold == out_warm

    def test_threshold_override(self, world_dir, snapshot, capsys):
        out = self._link_index(world_dir, snapshot, capsys,
                               "--threshold", "1.0")
        assert "pairs above threshold 1.0: 0" in out

    def test_known_and_index_are_exclusive(self, world_dir, snapshot):
        with pytest.raises(SystemExit):
            main(["link",
                  "--known", str(world_dir / "dm.jsonl"),
                  "--index", str(snapshot),
                  "--unknown", str(world_dir / "tmg.jsonl")])

    def test_batch_size_with_index_is_a_usage_error(self, world_dir,
                                                    snapshot, capsys):
        # The snapshot fixes the procedure; a --batch-size it would
        # silently ignore is refused instead.
        with pytest.raises(SystemExit) as exc:
            main(["link", "--index", str(snapshot),
                  "--unknown", str(world_dir / "tmg.jsonl"),
                  "--batch-size", "3"])
        assert exc.value.code == 2
        assert "index build --batch-size" in capsys.readouterr().err

    def test_neither_source_rejected(self, world_dir):
        with pytest.raises(SystemExit):
            main(["link",
                  "--unknown", str(world_dir / "tmg.jsonl")])


class TestManifest:
    def test_build_manifest_provenance(self, world_dir, tmp_path,
                                       capsys):
        """index build records its wall time in the run manifest."""
        import json

        from repro.obs.manifest import manifest_path_for

        trace = tmp_path / "trace.json"
        code = main(["--trace", str(trace), "index", "build",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--out", str(tmp_path / "built.snap")])
        assert code == 0
        assert "build:" in capsys.readouterr().out
        config = json.loads(manifest_path_for(trace).read_text())["config"]
        assert config["build_wall_s"] > 0

    def test_link_index_manifest_records_loaded_knobs(
            self, world_dir, tmp_path, capsys):
        """link --index records the loaded linker's knobs, not the
        pipeline defaults."""
        import json

        from repro.obs.manifest import manifest_path_for

        snap = tmp_path / "b11.snap"
        assert main(["index", "build",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--batch-size", "11", "--threshold", "0.5",
                     "--out", str(snap)]) == 0
        trace = tmp_path / "trace.json"
        code = main(["--trace", str(trace), "link",
                     "--index", str(snap),
                     "--unknown", str(world_dir / "tmg.jsonl")])
        capsys.readouterr()
        assert code == 0
        config = json.loads(manifest_path_for(trace).read_text())["config"]
        assert config["batch_size"] == 11
        assert config["threshold"] == 0.5
        assert config["index"] == str(snap)
