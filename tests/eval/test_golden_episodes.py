"""The golden-episode regression gate (committed seed-stable suite).

The committed file is the contract: a run of the full two-stage linker
over the golden suite must land inside the tolerance band, and a
deliberately degraded linker (stage-1 scores only) must breach it —
otherwise the gate could not catch a silent quality regression.
"""

import json
from pathlib import Path

import pytest

from repro.eval.episodes import (
    DEFAULT_TOLERANCE,
    GOLDEN_CONFIG,
    GOLDEN_METRICS,
    GOLDEN_PATH,
    check_golden,
    golden_payload,
    golden_suite,
    manifest_digest,
    run_episodes,
    write_golden,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_FILE = REPO_ROOT / "benchmarks" / "golden" / "golden_episodes.json"


@pytest.fixture(scope="module")
def suite():
    """The canonical golden suite: ``(episodes, config)``."""
    return golden_suite()


@pytest.fixture(scope="module")
def full_report(suite):
    episodes, config = suite
    return run_episodes(episodes, features=config.features,
                        variant="full")


class TestGoldenFile:
    def test_committed_file_matches_config(self):
        golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
        assert golden["config"] == GOLDEN_CONFIG.to_dict()
        assert golden["variant"] == "full"
        assert len(golden["manifest_sha256"]) == 64
        for cell, metrics in golden["cells"].items():
            for metric in GOLDEN_METRICS:
                assert metric in metrics, (cell, metric)

    def test_committed_manifest_is_reproducible(self, suite):
        """The suite samples to exactly the digest the file pins."""
        episodes, config = suite
        golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
        assert golden["manifest_sha256"] \
            == manifest_digest(episodes, config)


class TestGate:
    def test_full_linker_passes(self, suite, full_report):
        episodes, config = suite
        assert check_golden(GOLDEN_FILE, full_report, episodes,
                            config) == []

    def test_default_path_found_from_any_directory(
            self, suite, full_report, tmp_path, monkeypatch):
        """``eval episodes --check`` without a PATH gates against the
        committed file wherever it runs, not only from the repo root."""
        episodes, config = suite
        monkeypatch.chdir(tmp_path)
        assert Path(GOLDEN_PATH).resolve() == GOLDEN_FILE
        assert check_golden(GOLDEN_PATH, full_report, episodes,
                            config) == []

    def test_full_linker_reproduces_scores_exactly(self, suite,
                                                   full_report):
        """Same code, same seed: zero tolerance still passes."""
        episodes, config = suite
        assert check_golden(GOLDEN_FILE, full_report, episodes,
                            config, tolerance=0.0) == []

    def test_stage1_variant_breaches(self, suite):
        """Stage 2 disabled must fail the tolerance check."""
        episodes, config = suite
        report = run_episodes(episodes, features=config.features,
                              variant="stage1")
        breaches = check_golden(GOLDEN_FILE, report, episodes, config,
                                tolerance=DEFAULT_TOLERANCE)
        assert breaches
        # The drop shows up in the ranking/calibration metrics, not
        # as a missing cell.
        assert all(":" in b and "missing" not in b for b in breaches)

    def test_manifest_drift_is_a_breach(self, suite, full_report,
                                        tmp_path):
        from dataclasses import replace

        episodes, config = suite
        payload = golden_payload(full_report, episodes, config)
        payload["manifest_sha256"] = "0" * 64
        tampered = tmp_path / "golden.json"
        tampered.write_text(json.dumps(payload), encoding="utf-8")
        breaches = check_golden(tampered, full_report, episodes,
                                config)
        assert any(b.startswith("manifest drift") for b in breaches)
        # A config change re-samples the suite, so it also drifts.
        other = replace(config, seed=config.seed + 1)
        assert manifest_digest(episodes, other) \
            != manifest_digest(episodes, config)

    def test_missing_cell_is_a_breach(self, suite, full_report,
                                      tmp_path):
        episodes, config = suite
        payload = golden_payload(full_report, episodes, config)
        payload["cells"] = dict(payload["cells"])
        payload["cells"]["open-dark/w9999"] = \
            dict(payload["cells"]["open-dark/w400"])
        tampered = tmp_path / "golden.json"
        tampered.write_text(json.dumps(payload), encoding="utf-8")
        breaches = check_golden(tampered, full_report, episodes,
                                config)
        assert "open-dark/w9999: cell missing from run" in breaches

    def test_negative_tolerance_rejected(self, suite, full_report):
        from repro.errors import ConfigurationError

        episodes, config = suite
        with pytest.raises(ConfigurationError):
            check_golden(GOLDEN_FILE, full_report, episodes, config,
                         tolerance=-0.1)

    def test_missing_golden_file_raises_typed_error(self, suite,
                                                    full_report,
                                                    tmp_path):
        from repro.errors import DatasetError

        episodes, config = suite
        with pytest.raises(DatasetError, match="not found"):
            check_golden(tmp_path / "absent.json", full_report,
                         episodes, config)

    def test_corrupt_golden_file_raises_typed_error(self, suite,
                                                    full_report,
                                                    tmp_path):
        from repro.errors import DatasetError

        episodes, config = suite
        junk = tmp_path / "junk.json"
        junk.write_text("{not json", encoding="utf-8")
        with pytest.raises(DatasetError, match="not valid JSON"):
            check_golden(junk, full_report, episodes, config)

    def test_write_golden_round_trips(self, suite, full_report,
                                      tmp_path):
        episodes, config = suite
        path = tmp_path / "golden.json"
        payload = write_golden(path, full_report, episodes, config)
        assert json.loads(path.read_text(encoding="utf-8")) == payload
        assert check_golden(path, full_report, episodes, config,
                            tolerance=0.0) == []
