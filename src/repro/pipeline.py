"""High-level end-to-end API: from raw forums to linked aliases.

This is the entry point a downstream user wants: hand over two raw
forum dumps (or synthetic worlds), get back scored alias pairs.

    from repro import LinkingPipeline
    from repro.synth import build_world

    world = build_world()
    pipeline = LinkingPipeline()
    result = pipeline.link_forums(world.forums["reddit"],
                                  world.forums["tmg"])
    for match in result.accepted():
        print(match.unknown_id, "->", match.candidate_id, match.score)

The pipeline bundles the paper's full method: the 12-step polishing of
Section III-C, the refinement floors of Section IV-D, the two-stage
attribution of Section IV-I, and (optionally) the batched variant of
Section IV-J.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import PipelineConfig
from repro.core.batch import BatchedLinker
from repro.core.documents import AliasDocument, refine_forum
from repro.core.features import FeatureWeights
from repro.core.linker import AliasLinker, LinkResult
from repro.core.structure import structure_profiles
from repro.errors import ConfigurationError, InsufficientDataError
from repro.forums.models import Forum
from repro.obs.logging import get_logger
from repro.obs.spans import span
from repro.perf.blocked import resolve_block_size
from repro.perf.parallel import resolve_workers
from repro.textproc.cleaning import CleaningConfig, PolishReport, \
    polish_forum

log = get_logger(__name__)


@dataclass
class PipelineReport:
    """What happened at each step of an end-to-end run."""

    polish_known: Optional[PolishReport] = None
    polish_unknown: Optional[PolishReport] = None
    refined_known: int = 0
    refined_unknown: int = 0


class LinkingPipeline:
    """Polish, refine and link two forums end to end.

    Parameters
    ----------
    config:
        Pipeline constants (k, word budget, threshold, feature
        budgets); defaults reproduce the paper's configuration.
    cleaning:
        Polishing configuration (Section III-C).
    weights:
        Feature block weights.
    batch_size:
        When set, the RAM-bounded batched procedure of Section IV-J is
        used with this *B* instead of the in-memory linker.
    workers:
        Worker processes for the stage-2 restage (``None`` reads
        ``REPRO_WORKERS``; 1 = serial).  Any worker count produces
        bit-identical output.
    cache / block_size:
        Profile-caching policy and stage-1 scoring block size,
        forwarded to the linker (see
        :class:`~repro.core.linker.AliasLinker`).

    ``workers`` and ``block_size`` resolve (argument > env > default)
    and validate here, once, before any forum is polished.
    """

    def __init__(self, config: PipelineConfig | None = None,
                 cleaning: CleaningConfig | None = None,
                 weights: FeatureWeights | None = None,
                 batch_size: Optional[int] = None,
                 workers: Optional[int] = None,
                 cache: bool = True,
                 block_size: Optional[int] = None) -> None:
        self.config = config or PipelineConfig()
        self.cleaning = cleaning or CleaningConfig()
        self.weights = weights or FeatureWeights()
        self.batch_size = batch_size
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.block_size = resolve_block_size(block_size)
        self.report = PipelineReport()

    def manifest_config(self) -> Dict[str, object]:
        """The pipeline's effective knobs for a run manifest.

        Everything that changes the output (or its performance shape)
        of a run, flattened to JSON scalars — what
        :func:`repro.obs.manifest.build_manifest` records so two
        result files can be compared knowing they came from the same
        setup.
        """
        return {
            "k": self.config.k,
            "words_per_alias": self.config.words_per_alias,
            "threshold": self.config.threshold,
            "use_activity": self.config.use_activity,
            "use_structure": self.config.use_structure,
            "use_lemmatization": self.config.use_lemmatization,
            "min_timestamps": self.config.min_timestamps,
            "batch_size": self.batch_size,
            "workers": self.workers,
            "cache": self.cache,
            "block_size": self.block_size,
        }

    def prepare_forum(self, forum: Forum,
                      is_known: bool = True) -> List[AliasDocument]:
        """Polish and refine one forum into alias documents.

        Timestamps in :class:`~repro.forums.models.Message` are UTC by
        contract (the simulated scrapers already realign the local
        times the forum software displays, Section IV-B), so no further
        shift is applied here.  Callers holding *naively* collected
        local-time dumps should refine with
        :func:`repro.core.documents.refine_forum` and an explicit
        ``utc_shift_hours``.
        """
        role = "known" if is_known else "unknown"
        with span("pipeline.prepare_forum", forum=forum.name, role=role):
            profiles = None
            if self.config.use_structure:
                # Structure comes from collection metadata (reply
                # graph, threads, timestamps), so it is computed on
                # the raw forum: polishing only rewrites text and
                # must not disturb it.
                with span("pipeline.structure", forum=forum.name):
                    profiles = structure_profiles(forum)
            with span("pipeline.polish", forum=forum.name):
                polished, polish_report = polish_forum(forum,
                                                       self.cleaning)
            with span("pipeline.refine", forum=forum.name):
                documents = refine_forum(
                    polished,
                    words_per_alias=self.config.words_per_alias,
                    min_timestamps=self.config.min_timestamps,
                    use_lemmatization=self.config.use_lemmatization,
                    require_activity=self.config.use_activity,
                    structure_profiles=profiles,
                )
        log.info("pipeline.prepare_forum", forum=forum.name, role=role,
                 refined=len(documents))
        if is_known:
            self.report.polish_known = polish_report
            self.report.refined_known = len(documents)
        else:
            self.report.polish_unknown = polish_report
            self.report.refined_unknown = len(documents)
        return documents

    def _make_linker(self) -> AliasLinker:
        weights = self.weights if self.config.use_activity \
            else self.weights.without_activity()
        cls, variant = (AliasLinker, {}) if self.batch_size is None \
            else (BatchedLinker, {"batch_size": self.batch_size})
        return cls(
            k=self.config.k,
            threshold=self.config.threshold,
            reduction_budget=self.config.reduction_budget,
            final_budget=self.config.final_budget,
            weights=weights,
            use_activity=self.config.use_activity,
            use_structure=self.config.use_structure,
            workers=self.workers,
            cache=self.cache,
            block_size=self.block_size,
            **variant,
        )

    def link_documents(self, known: List[AliasDocument],
                       unknown: List[AliasDocument],
                       checkpoint: Optional[object] = None,
                       resume: bool = False,
                       ) -> LinkResult:
        """Link already-refined document sets.

        *checkpoint* persists every finished unknown atomically to that
        path; *resume* additionally skips the unknowns an interrupted
        run already completed (the result equals an uninterrupted
        run's).
        """
        if resume and checkpoint is None:
            raise ConfigurationError(
                "resume requires a checkpoint path")
        if not known:
            raise InsufficientDataError(
                "no known aliases survived refinement")
        if not unknown:
            raise InsufficientDataError(
                "no unknown aliases survived refinement")
        with span("pipeline.link_documents", n_known=len(known),
                  n_unknown=len(unknown),
                  batched=self.batch_size is not None):
            linker = self._make_linker()
            linker.fit(known)
            return linker.link(unknown, checkpoint=checkpoint,
                               resume=resume)

    def link_forums(self, known_forum: Forum,
                    unknown_forum: Forum,
                    checkpoint: Optional[object] = None,
                    resume: bool = False,
                    ) -> LinkResult:
        """The one-call API: polish, refine and link two raw forums.

        *known_forum* plays the paper's set Z (e.g. Reddit); every
        refined alias of *unknown_forum* (e.g. a dark-web forum) is
        linked against it.  See :meth:`link_documents` for
        *checkpoint* / *resume*.
        """
        known = self.prepare_forum(known_forum, is_known=True)
        unknown = self.prepare_forum(unknown_forum, is_known=False)
        return self.link_documents(known, unknown,
                                   checkpoint=checkpoint, resume=resume)
