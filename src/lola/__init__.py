"""Fixed-memory attention engine with three memory tiers.

Recent pairs sit in a sliding window attended exactly; pairs the hidden
state cannot reproduce sit in a sparse full-rank cache chosen by self-recall
score; everything else is absorbed into a linear-attention hidden state.
Includes an exact softmax oracle, a chunked prefill path, collision and
low-rank diagnostics, and a synthetic retrieval harness.
"""

__version__ = "0.1.0"

from .attention import (
    AttentionConfig,
    DistillationDiverged,
    FeatureMapParams,
    LinearState,
    OverflowGuardError,
    distill_feature_map,
    feature_map_apply,
    feature_map_batch,
    init_feature_map,
    load_feature_map,
    save_feature_map,
    softmax_attention_oracle,
)
from .cache import (
    LolaCache,
    ScoringStrategy,
    SelfRecallScoring,
    StepEvent,
)
from .chunkwise import (
    ChunkConfig,
    PrefillState,
    attend_after_prefill,
    compression_rate,
    effective_cache_size,
    prefill,
)
from .numerics import SeededRng, gaussian_sample

__all__ = [
    "AttentionConfig",
    "ChunkConfig",
    "DistillationDiverged",
    "FeatureMapParams",
    "LinearState",
    "LolaCache",
    "OverflowGuardError",
    "PrefillState",
    "ScoringStrategy",
    "SeededRng",
    "SelfRecallScoring",
    "StepEvent",
    "__version__",
    "attend_after_prefill",
    "compression_rate",
    "distill_feature_map",
    "effective_cache_size",
    "feature_map_apply",
    "feature_map_batch",
    "gaussian_sample",
    "init_feature_map",
    "load_feature_map",
    "prefill",
    "save_feature_map",
    "softmax_attention_oracle",
]
