"""Chaos tests: the pipeline under deterministic fault injection.

The acceptance criterion: a forum round trip through storage with
transient faults injected at its I/O sites at a 30% rate, then a
:class:`LinkingPipeline` run, completes and produces matches identical
to a fault-free run (the storage retries re-read the same bytes, so
they are exact).  The linking stages themselves are pure computation
and are not fault-injected.
"""

import pytest

from repro.config import PipelineConfig
from repro.errors import ConfigurationError
from repro.forums.storage import load_forum, save_forum
from repro.pipeline import LinkingPipeline
from repro.resilience.faults import FaultPlan, install_fault_plan


@pytest.fixture
def chaos_30():
    """Install a 30%-transient-rate plan; always restore the previous."""
    plan = FaultPlan(seed=2026, transient_rate=0.3)
    previous = install_fault_plan(plan)
    yield plan
    install_fault_plan(previous)


def _pipeline():
    return LinkingPipeline(
        PipelineConfig(words_per_alias=600, threshold=0.0))


class TestChaosPipeline:
    def test_forum_run_matches_fault_free(self, world, tmp_path,
                                          chaos_30):
        known = world.forums["dm"]
        unknown = world.forums["tmg"]

        install_fault_plan(None)
        clean = _pipeline().link_forums(known, unknown)

        install_fault_plan(chaos_30)
        for forum in (known, unknown):
            save_forum(forum, tmp_path / f"{forum.name}.jsonl")
        chaotic = _pipeline().link_forums(
            load_forum(tmp_path / f"{known.name}.jsonl"),
            load_forum(tmp_path / f"{unknown.name}.jsonl"))

        assert chaos_30.injected > 0, \
            "the chaos run never actually saw a fault"
        assert chaotic.matches == clean.matches
        assert chaotic.candidate_scores == clean.candidate_scores
        assert chaotic.skipped == clean.skipped

    def test_documents_run_matches_fault_free(self, reddit_alter_egos,
                                              chaos_30):
        known = reddit_alter_egos.originals
        unknown = reddit_alter_egos.alter_egos[:5]

        install_fault_plan(None)
        clean = _pipeline().link_documents(known, unknown)

        install_fault_plan(chaos_30)
        chaotic = _pipeline().link_documents(known, unknown)

        assert chaotic == clean

    def test_resume_without_checkpoint_rejected(self,
                                                reddit_alter_egos):
        with pytest.raises(ConfigurationError,
                           match="resume requires a checkpoint"):
            _pipeline().link_documents(
                reddit_alter_egos.originals,
                reddit_alter_egos.alter_egos[:1],
                resume=True)

    def test_checkpointed_chaos_run(self, tmp_path, reddit_alter_egos,
                                    chaos_30):
        """Checkpointing and fault injection compose."""
        known = reddit_alter_egos.originals
        unknown = reddit_alter_egos.alter_egos[:4]

        install_fault_plan(None)
        clean = _pipeline().link_documents(known, unknown)

        install_fault_plan(chaos_30)
        chaotic = _pipeline().link_documents(
            known, unknown, checkpoint=tmp_path / "chaos.ckpt")
        assert chaotic == clean
