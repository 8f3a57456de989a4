"""Run manifests: determinism contract, digests, sidecar naming."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import DatasetError
from repro.obs.manifest import (
    ENV_KNOBS,
    MANIFEST_VERSION,
    TIMING_FIELDS,
    available_cores,
    build_manifest,
    file_digest,
    git_revision,
    load_manifest,
    manifest_equal,
    manifest_path_for,
    write_manifest,
)


@pytest.fixture
def input_file(tmp_path):
    path = tmp_path / "known.jsonl"
    path.write_text("hello", encoding="utf-8")
    return path


class TestDeterminism:
    def test_same_seed_runs_are_identical_modulo_timing(
            self, input_file):
        kwargs = dict(command="link", argv=["--seed", "7"],
                      config={"k": 10, "threshold": 0.419}, seed=7,
                      inputs={"known": input_file})
        first = build_manifest(elapsed_s=1.0, **kwargs)
        second = build_manifest(elapsed_s=99.0, **kwargs)
        assert manifest_equal(first, second)

    def test_different_seed_breaks_equality(self):
        assert not manifest_equal(build_manifest(seed=1),
                                  build_manifest(seed=2))

    def test_different_input_content_breaks_equality(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("one", encoding="utf-8")
        first = build_manifest(inputs={"known": path})
        path.write_text("two", encoding="utf-8")
        second = build_manifest(inputs={"known": path})
        assert not manifest_equal(first, second)

    def test_timing_fields_are_the_documented_ones(self):
        assert set(TIMING_FIELDS) == {"created_at", "elapsed_s"}

    def test_custom_ignore_list(self):
        first = build_manifest(command="a")
        second = build_manifest(command="b")
        assert not manifest_equal(first, second)
        assert manifest_equal(first, second,
                              ignore=TIMING_FIELDS + ("command",))


class TestContents:
    def test_core_fields_present(self, input_file):
        manifest = build_manifest(command="link", seed=7,
                                  inputs={"known": input_file})
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["command"] == "link"
        assert manifest["seed"] == 7
        assert manifest["python"]
        assert manifest["platform"]
        assert manifest["created_at"]

    def test_available_cores_positive(self):
        assert available_cores() >= 1
        assert build_manifest()["cores"] == available_cores()

    def test_input_digest_matches_sha256(self, input_file):
        manifest = build_manifest(inputs={"known": input_file})
        entry = manifest["inputs"]["known"]
        assert entry["sha256"] == hashlib.sha256(b"hello").hexdigest()
        assert entry["bytes"] == 5

    def test_missing_input_recorded_not_raised(self, tmp_path):
        manifest = build_manifest(
            inputs={"known": tmp_path / "absent.jsonl"})
        entry = manifest["inputs"]["known"]
        assert entry["sha256"] is None
        assert entry["bytes"] is None

    def test_env_records_only_set_knobs(self, monkeypatch):
        for knob in ENV_KNOBS:
            monkeypatch.delenv(knob, raising=False)
        assert build_manifest()["env"] == {}
        monkeypatch.setenv("REPRO_LOG_LEVEL", "INFO")
        assert build_manifest()["env"] == {"REPRO_LOG_LEVEL": "INFO"}

    def test_extra_fields_merged(self):
        manifest = build_manifest(extra={"bench": "linking"})
        assert manifest["bench"] == "linking"

    def test_git_revision_in_checkout(self):
        # The test suite runs inside the repo, so HEAD must resolve.
        rev = git_revision()
        assert rev is None or len(rev) == 40

    def test_file_digest_streams_large_file(self, tmp_path):
        path = tmp_path / "big.bin"
        payload = b"x" * (2 << 20)
        path.write_bytes(payload)
        entry = file_digest(path)
        assert entry["bytes"] == len(payload)
        assert entry["sha256"] == hashlib.sha256(payload).hexdigest()


class TestPersistence:
    def test_sidecar_naming(self):
        assert manifest_path_for("out/trace.json").name \
            == "trace.manifest.json"
        assert manifest_path_for("out/run.chrome.json").name \
            == "run.chrome.manifest.json"

    def test_write_load_roundtrip(self, tmp_path):
        manifest = build_manifest(command="link", seed=7)
        path = write_manifest(tmp_path / "m.json", manifest)
        loaded = load_manifest(path)
        assert manifest_equal(loaded, manifest, ignore=())

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_manifest(tmp_path / "absent.json")

    def test_load_invalid_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_manifest(bad)

    def test_load_unversioned_document_raises(self, tmp_path):
        bad = tmp_path / "plain.json"
        bad.write_text(json.dumps({"command": "link"}),
                       encoding="utf-8")
        with pytest.raises(DatasetError):
            load_manifest(bad)
