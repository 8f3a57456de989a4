"""repro: a reproduction of "A Light in the Dark Web: Linking Dark Web
Aliases to Real Internet Identities" (ICDCS 2020).

The package implements the paper's full system on synthetic forum
worlds (see DESIGN.md for the substitution rationale):

* :mod:`repro.textproc` — tokenizer, lemmatizer, language detector and
  the 12-step polishing pipeline of Section III-C;
* :mod:`repro.forums` — forum data model, JSONL storage, simulated
  scrapers and the Table I topic taxonomy;
* :mod:`repro.synth` — the synthetic multi-forum world generator
  (personas with stylometric fingerprints and daily habits);
* :mod:`repro.core` — the paper's method: feature extraction
  (Table II), daily activity profiles, k-attribution, the two-stage
  linker, batched processing, and the two baselines;
* :mod:`repro.eval` — alter-ego datasets, metrics, the simulated
  manual-evaluation protocol of Section V-A;
* :mod:`repro.profiling` — personal-information extraction (§V-D);
* :mod:`repro.obs` — observability: tracing spans, metrics registry,
  structured logging (``docs/observability.md``);
* :mod:`repro.resilience` — fault tolerance: retry policies, one
  atomic file writer, resumable checkpoints, crash-safe index
  snapshots (``docs/robustness.md``);
* :mod:`repro.perf` — performance: compute-once profile caching and
  blocked stage-1 scoring (``docs/performance.md``).

Quick start::

    from repro import LinkingPipeline
    from repro.synth import build_world

    world = build_world()
    result = LinkingPipeline().link_forums(world.forums["reddit"],
                                           world.forums["tmg"])
    for match in result.accepted():
        print(match.unknown_id, "->", match.candidate_id, match.score)
"""

from repro.config import (
    FEATURE_FAMILIES,
    FINAL_FEATURES,
    PAPER_THRESHOLD,
    SPACE_REDUCTION_FEATURES,
    FeatureBudget,
    FeatureConfig,
    PipelineConfig,
)
from repro.core import (
    AliasDocument,
    AliasLinker,
    BatchedLinker,
    FeatureExtractor,
    FeatureWeights,
    KAttributor,
    KoppelBaseline,
    LinkResult,
    Match,
    StandardBaseline,
    ThresholdCalibrator,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DatasetError,
    InsufficientDataError,
    LanguageDetectionError,
    NotFittedError,
    ReproError,
    ResilienceError,
    RetryExhaustedError,
    ScrapeError,
    SnapshotError,
    TransientError,
)
from repro import obs
from repro import perf
from repro import resilience
from repro.perf import ProfileCache
from repro.pipeline import LinkingPipeline, PipelineReport
from repro.resilience import (
    CheckpointStore,
    RetryPolicy,
    load_index,
    save_index,
)

__version__ = "1.0.0"

__all__ = [
    "FEATURE_FAMILIES",
    "FINAL_FEATURES",
    "PAPER_THRESHOLD",
    "SPACE_REDUCTION_FEATURES",
    "FeatureBudget",
    "FeatureConfig",
    "PipelineConfig",
    "AliasDocument",
    "AliasLinker",
    "BatchedLinker",
    "FeatureExtractor",
    "FeatureWeights",
    "KAttributor",
    "KoppelBaseline",
    "LinkResult",
    "Match",
    "StandardBaseline",
    "ThresholdCalibrator",
    "CheckpointError",
    "CheckpointStore",
    "ConfigurationError",
    "DatasetError",
    "InsufficientDataError",
    "LanguageDetectionError",
    "NotFittedError",
    "ReproError",
    "ResilienceError",
    "RetryExhaustedError",
    "RetryPolicy",
    "ScrapeError",
    "SnapshotError",
    "TransientError",
    "LinkingPipeline",
    "PipelineReport",
    "ProfileCache",
    "load_index",
    "save_index",
    "obs",
    "perf",
    "resilience",
    "__version__",
]
