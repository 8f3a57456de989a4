"""Integration tests for the end-to-end pipeline (repro.pipeline)."""

import pytest

from repro.config import PipelineConfig
from repro.errors import ConfigurationError, InsufficientDataError
from repro.pipeline import LinkingPipeline


class TestPrepareForum:
    def test_prepare_reports(self, world):
        pipeline = LinkingPipeline(
            PipelineConfig(words_per_alias=600))
        docs = pipeline.prepare_forum(world.forums["reddit"])
        assert pipeline.report.polish_known is not None
        assert pipeline.report.refined_known == len(docs)
        assert len(docs) > 0

    def test_utc_alignment_applied(self, world):
        """TMG displays UTC+2; refined activity profiles must be
        aligned back, i.e. building with and without the forum offset
        must differ."""
        import numpy as np

        from repro.core.documents import refine_forum
        from repro.textproc.cleaning import polish_forum

        tmg = world.forums["tmg"]
        polished, _ = polish_forum(tmg)
        aligned = refine_forum(polished, words_per_alias=600,
                               utc_shift_hours=-2)
        naive = refine_forum(polished, words_per_alias=600,
                             utc_shift_hours=0)
        by_id = {d.doc_id: d for d in naive}
        shifted_any = any(
            not np.allclose(doc.activity, by_id[doc.doc_id].activity)
            for doc in aligned if doc.doc_id in by_id)
        assert shifted_any


class TestLinkForums:
    def test_cross_forum_linking_finds_ground_truth(self, world):
        """The headline integration test: dark-dark linking recovers
        a decent share of the planted TMG<->DM pairs."""
        pipeline = LinkingPipeline(
            PipelineConfig(words_per_alias=600, threshold=0.0))
        result = pipeline.link_forums(world.forums["dm"],
                                      world.forums["tmg"])
        truth = world.linked_aliases("tmg", "dm")
        evaluable = [
            m for m in result.matches
            if m.unknown_id.split("/", 1)[1] in truth
        ]
        assert evaluable, "no linked alias survived refinement"
        correct = sum(
            truth[m.unknown_id.split("/", 1)[1]]
            == m.candidate_id.split("/", 1)[1]
            for m in evaluable)
        assert correct / len(evaluable) > 0.5

    def test_empty_known_raises(self, world):
        pipeline = LinkingPipeline()
        with pytest.raises(InsufficientDataError):
            pipeline.link_documents([], [])

    def test_batched_pipeline_runs(self, reddit_alter_egos):
        pipeline = LinkingPipeline(
            PipelineConfig(words_per_alias=600, threshold=0.0),
            batch_size=15)
        result = pipeline.link_documents(
            reddit_alter_egos.originals,
            reddit_alter_egos.alter_egos[:3])
        assert len(result.matches) == 3

    def test_resume_without_checkpoint_rejected(self,
                                                reddit_alter_egos):
        pipeline = LinkingPipeline(
            PipelineConfig(words_per_alias=600, threshold=0.0))
        with pytest.raises(ConfigurationError,
                           match="resume requires a checkpoint"):
            pipeline.link_documents(
                reddit_alter_egos.originals,
                reddit_alter_egos.alter_egos[:1],
                resume=True)
