"""Every exported name resolves, so a deletion cannot leave a stale export,
and the package exports exactly the names listed here."""

import importlib
import pkgutil

import pytest

import lola

MODULES = ["lola"] + sorted(m.name for m in pkgutil.walk_packages(lola.__path__, "lola."))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert isinstance(module.__all__, list)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_exports_exactly_these_names():
    # adding a public name, or removing one, is a deliberate edit of this list
    assert lola.__all__ == [
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
