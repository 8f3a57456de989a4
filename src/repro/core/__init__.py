"""The paper's primary contribution: two-stage alias linking combining
stylometric features with daily activity profiles (Section IV).
"""

from repro.core.activity import (
    activity_profile,
    profile_similarity,
    try_activity_profile,
    usable_timestamps,
)
from repro.core.baselines import KoppelBaseline, StandardBaseline
from repro.core.batch import BatchedLinker
from repro.core.geolocation import (
    TimezoneEstimate,
    TimezoneEstimator,
    crowd_offset,
)
from repro.core.incremental import IncrementalLinker
from repro.core.verification import (
    Attribution,
    OpenSetAttributor,
    PairVerifier,
    Verdict,
)
from repro.core.documents import (
    AliasDocument,
    build_document,
    documents_by_id,
    normalize_message,
    refine_forum,
)
from repro.core.features import (
    FeatureExtractor,
    FeatureWeights,
    frequency_features,
)
from repro.core.kattribution import Candidates, KAttributor
from repro.core.linker import AliasLinker, LinkResult, Match, \
    SkippedUnknown, check_document
from repro.core.similarity import cosine_pair, cosine_similarity, top_k
from repro.core.structure import (
    STRUCTURE_DIM,
    STRUCTURE_FEATURE_NAMES,
    merge_profile_maps,
    structure_profiles,
)
from repro.core.tfidf import TfidfModel, l2_normalize_rows
from repro.core.threshold import (
    Calibration,
    ThresholdCalibrator,
    matches_to_curve,
)

__all__ = [
    "TimezoneEstimate",
    "TimezoneEstimator",
    "crowd_offset",
    "IncrementalLinker",
    "Attribution",
    "OpenSetAttributor",
    "PairVerifier",
    "Verdict",
    "activity_profile",
    "profile_similarity",
    "try_activity_profile",
    "usable_timestamps",
    "KoppelBaseline",
    "StandardBaseline",
    "BatchedLinker",
    "AliasDocument",
    "build_document",
    "documents_by_id",
    "normalize_message",
    "refine_forum",
    "FeatureExtractor",
    "FeatureWeights",
    "frequency_features",
    "Candidates",
    "KAttributor",
    "AliasLinker",
    "LinkResult",
    "Match",
    "SkippedUnknown",
    "check_document",
    "cosine_pair",
    "cosine_similarity",
    "top_k",
    "STRUCTURE_DIM",
    "STRUCTURE_FEATURE_NAMES",
    "merge_profile_maps",
    "structure_profiles",
    "TfidfModel",
    "l2_normalize_rows",
    "Calibration",
    "ThresholdCalibrator",
    "matches_to_curve",
]
