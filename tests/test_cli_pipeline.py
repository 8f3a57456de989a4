"""End-to-end CLI tests: calibrate and link subcommands.

These exercise the full polish → refine → link path through the CLI on
a small generated world (module-scoped: built once).
"""

import re

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-world")
    code = main([
        "generate", "--out", str(out), "--seed", "17",
        "--reddit-users", "26", "--tmg-users", "12", "--dm-users", "10",
        "--tmg-dm-overlap", "4", "--reddit-dark-overlap", "0",
    ])
    assert code == 0
    return out


class TestCalibrateCommand:
    def test_calibrate_reports_threshold(self, world_dir, capsys):
        code = main(["calibrate",
                     "--forum", str(world_dir / "reddit.jsonl"),
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0, out
        match = re.search(r"threshold: (\d\.\d+)", out)
        assert match, out
        assert 0.0 < float(match.group(1)) <= 1.0
        assert "precision:" in out
        assert "recall:" in out
        assert "AUC:" in out

    def test_calibrate_respects_target_recall(self, world_dir,
                                              capsys):
        code = main(["calibrate",
                     "--forum", str(world_dir / "reddit.jsonl"),
                     "--seed", "1", "--target-recall", "0.5"])
        out = capsys.readouterr().out
        assert code == 0, out
        match = re.search(r"recall:\s+(\d+\.\d+)%", out)
        assert match
        assert float(match.group(1)) >= 50.0


class TestLinkCommand:
    def test_link_outputs_pairs(self, world_dir, capsys):
        code = main(["link",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--unknown", str(world_dir / "tmg.jsonl"),
                     "--threshold", "0.9"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "known aliases after refinement" in out
        assert "pairs above threshold" in out
        # at threshold 0.9 on synthetic scores some pairs must appear
        assert re.search(r"tmg/\S+ -> dm/\S+ \(score 0\.9", out)

    def test_link_with_batching(self, world_dir, capsys):
        code = main(["link",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--unknown", str(world_dir / "tmg.jsonl"),
                     "--threshold", "0.9", "--batch-size", "15"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "pairs above threshold" in out

    def test_batch_size_below_k_fails_cleanly(self, world_dir,
                                              capsys):
        # k defaults to 10; B must exceed it (§IV-J)
        code = main(["link",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--unknown", str(world_dir / "tmg.jsonl"),
                     "--threshold", "0.9", "--batch-size", "6"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_link_impossible_threshold_outputs_nothing(self, world_dir,
                                                       capsys):
        code = main(["link",
                     "--known", str(world_dir / "dm.jsonl"),
                     "--unknown", str(world_dir / "tmg.jsonl"),
                     "--threshold", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pairs above threshold 1.0: 0" in out
