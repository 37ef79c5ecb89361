"""Recall evaluation across policies, budgets and scoring rules.

A trial streams one generated haystack into the chosen engine (per-token
decode path, or chunked prefill when a chunk size is set), then issues the
probe as a plain query and decodes the answer to the nearest codebook value.
Accuracy is the exact fraction of matching trials. Feature maps default to
ones distilled on sequences from the task's own key distribution, so the
linear path is a meaningful kernel approximation; a random map remains
available as a stress configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from ..attention import (
    AttentionConfig,
    FeatureMapParams,
    _check_feature_dim,
    _check_size,
    distill_feature_map,
    init_feature_map,
    load_feature_map,
)
from ..analysis import _DECODE_POLICIES, _policy_tiers, engine_for_policy
from ..cache import SCORING_STRATEGIES, LolaCache, SelfRecallScoring
from ..chunkwise import ChunkConfig, prefill
from ..numerics import SeededRng
from .synthetic import KEY_SCALE, CLUSTER_NOISE, NiahInstance, SyntheticTaskSpec, gen_niah

__all__ = [
    "ABLATION_ROW_ORDER",
    "EXPECTED_ACCURACY_ORDER",
    "RECORD_COLUMNS",
    "ExperimentConfig",
    "ResultRecord",
    "decode_answer",
    "eval_recall",
    "resolve_feature_map",
    "run_ablation",
    "run_trial",
]

# Distillation corpus: small sequences from the task's key distribution.
# The step count is deliberately modest: the tracking loss is invariant to
# the kernel's overall magnitude, and long runs drift the feature map toward
# kernel values hot enough to swamp the engine's shared denominators.
DISTILL_SEQUENCES = 12
DISTILL_SEQ_LEN = 24
DISTILL_STEPS = 40
DISTILL_LR = 2e-4

# the policies the chunked prefill path runs; the rest need the decode path
_CHUNKED_POLICIES = ("lola", "window-only")


@dataclass(frozen=True)
class ExperimentConfig:
    """One recall experiment: which policy, at what budgets, on which map."""

    policy: str = "lola"
    window_capacity: int = 64
    sparse_capacity: int = 64
    chunk_size: int | None = None      # set -> chunked prefill path
    trials: int = 100
    feature_map: str = "distill"       # "distill" | "random" | path to a saved map
    feature_dim: int | None = None     # None -> 2 * head_dim
    seed: int = 0

    def __post_init__(self):
        _check_size("window_capacity", self.window_capacity, 0)
        _check_size("sparse_capacity", self.sparse_capacity, 0)
        chunked = self.chunk_size is not None
        if chunked:
            _check_size("chunk_size", self.chunk_size, 1)
        allowed = _CHUNKED_POLICIES if chunked else _DECODE_POLICIES
        if self.policy not in allowed:
            path = "the chunked path" if chunked else "the decode path"
            raise ValueError(
                f"policy {self.policy!r} is not a policy {path} runs; have {list(allowed)}"
            )
        _check_size("trials", self.trials, 1)
        _check_feature_dim(self.feature_dim)
        _check_size("seed", self.seed, 0)


@dataclass(frozen=True)
class ResultRecord:
    """One experiment outcome row."""

    name: str
    policy: str
    window_capacity: int
    sparse_capacity: int
    chunk_size: int | None
    haystack_len: int
    head_dim: int
    feature_dim: int
    key_distribution: str
    value_codebook_size: int
    trials: int
    seed: int
    accuracy: float
    mean_self_recall_error: float
    effective_cache_size: int
    wall_time_s: float


# wall time stays out of emitted rows so re-runs are byte-identical
RECORD_COLUMNS = [f.name for f in fields(ResultRecord) if f.name != "wall_time_s"]


_distill_cache: dict[tuple, FeatureMapParams] = {}


def _distill_corpus(task: SyntheticTaskSpec, rng: SeededRng) -> list:
    """Query/key/value sequences matching the task's key statistics."""
    gen = rng.generator()
    d, m = task.head_dim, task.value_codebook_size
    sequences = []
    for _ in range(DISTILL_SEQUENCES):
        if task.key_distribution == "clustered":
            centers = gen.normal(0.0, KEY_SCALE, (m, d))
            ks = centers[gen.integers(0, m, DISTILL_SEQ_LEN)] + gen.normal(
                0.0, CLUSTER_NOISE * KEY_SCALE, (DISTILL_SEQ_LEN, d)
            )
            qs = centers[gen.integers(0, m, DISTILL_SEQ_LEN)] + gen.normal(
                0.0, CLUSTER_NOISE * KEY_SCALE, (DISTILL_SEQ_LEN, d)
            )
        else:
            ks = gen.normal(0.0, KEY_SCALE, (DISTILL_SEQ_LEN, d))
            qs = gen.normal(0.0, KEY_SCALE, (DISTILL_SEQ_LEN, d))
        vs = gen.normal(0.0, 1.0, (DISTILL_SEQ_LEN, d))
        sequences.append((qs, ks, vs))
    return sequences


def resolve_feature_map(exp: ExperimentConfig, task: SyntheticTaskSpec, attn: AttentionConfig) -> FeatureMapParams:
    rng = SeededRng(exp.seed).child(7)
    if exp.feature_map == "random":
        return init_feature_map(rng, attn)
    if exp.feature_map == "distill":
        key = (
            task.key_distribution,
            task.value_codebook_size,
            attn.head_dim,
            attn.feature_dim,
            round(attn.scale, 12),
            exp.seed,
        )
        if key not in _distill_cache:
            corpus = _distill_corpus(task, rng.child(1))
            _distill_cache[key] = distill_feature_map(
                rng.child(2), attn, corpus, DISTILL_STEPS, DISTILL_LR
            )
        return _distill_cache[key]
    return load_feature_map(exp.feature_map)


def decode_answer(answer: np.ndarray, codebook: np.ndarray) -> int:
    """Nearest codebook entry by L2 distance."""
    return int(np.argmin(np.linalg.norm(codebook - answer, axis=1)))


def run_trial(
    exp: ExperimentConfig,
    inst: NiahInstance,
    attn: AttentionConfig,
    params: FeatureMapParams,
) -> LolaCache:
    """Stream one haystack and return the engine that holds it, ready for the
    probe: the decode engine the policy names, or the one a chunked prefill
    hands over, whose sparse capacity the policy sets."""
    if exp.chunk_size is not None:
        lam = _policy_tiers(exp.policy, exp.window_capacity, exp.sparse_capacity)[1]
        cc = ChunkConfig(exp.chunk_size, lam)
        # queries equal keys on these streams: only the probe's answer matters
        return prefill(inst.keys, inst.keys, inst.values, cc, attn, params)[1].engine
    engine = engine_for_policy(exp.policy, attn, params, exp.window_capacity, exp.sparse_capacity)
    # queries equal keys here too; a dynamic rule ignores them
    engine.ingest(inst.keys, inst.values, inst.keys)
    return engine


def eval_recall(
    exp: ExperimentConfig,
    task: SyntheticTaskSpec,
    name: str = "recall",
) -> ResultRecord:
    """Accuracy of one policy over seeded trials of one task."""
    attn = AttentionConfig(task.head_dim, exp.feature_dim)
    params = resolve_feature_map(exp, task, attn)
    base = SeededRng(exp.seed)
    t0 = time.perf_counter()
    matches = 0
    score_sum, absorbed = 0.0, 0
    for i in range(exp.trials):
        inst = gen_niah(task, seed=base.child(100, i).seed)
        engine = run_trial(exp, inst, attn, params)
        matches += decode_answer(engine.attend(inst.probe), inst.codebook) == inst.target_value_id
        score_sum += engine.absorbed_score_sum
        absorbed += engine.linear.count
    wall = time.perf_counter() - t0
    # the capacities and the full-rank budget are the engine's: a policy drops
    # tiers, and a prefill's window is two chunks and it also holds the one in flight
    size = engine.window_capacity + engine.sparse_capacity + (exp.chunk_size or 0)
    return ResultRecord(
        name=name,
        policy=exp.policy,
        window_capacity=engine.window_capacity,
        sparse_capacity=engine.sparse_capacity,
        chunk_size=exp.chunk_size,
        haystack_len=task.haystack_len,
        head_dim=task.head_dim,
        feature_dim=attn.feature_dim,
        key_distribution=task.key_distribution,
        value_codebook_size=task.value_codebook_size,
        trials=exp.trials,
        seed=exp.seed,
        accuracy=matches / exp.trials,
        mean_self_recall_error=score_sum / absorbed if absorbed else 0.0,
        effective_cache_size=size,
        wall_time_s=wall,
    )


# row order mirrors the scoring ablation table: the rules as the engine names
# them, self-recall first, then the plain window extension at the same budget
ABLATION_ROW_ORDER = [*SCORING_STRATEGIES, "window-extension"]

# full-rank pairs per ablation row unless set: half window, half sparse cache
_BUDGET = 128

# how the rules are expected to rank by accuracy, best first
EXPECTED_ACCURACY_ORDER = [
    "self-recall",
    "overestimate",
    "window-extension",
    "attnerr-abs",
    "attnerr-sq",
]


def run_ablation(
    task: SyntheticTaskSpec,
    strategies: list[str] | None = None,
    budget: int = _BUDGET,
    trials: int = 100,
    seed: int = 0,
    feature_map: str = "distill",
    feature_dim: int | None = None,
) -> list[ResultRecord]:
    """Compare scoring rules at one matched full-rank budget.

    Every rule gets half the budget as window and half as sparse cache; the
    baseline spends the whole budget on a wider window. The same seeded trial
    streams are reused across rows, and the ``lola`` policy's own rule is
    always one of them.
    """
    base = ExperimentConfig(trials=trials, feature_map=feature_map, feature_dim=feature_dim, seed=seed)
    return [eval_recall(exp, task, name=name) for name, exp in _ablation_rows(base, strategies, budget)]


def _ablation_rows(
    base: ExperimentConfig, strategies: list[str] | None, budget: int
) -> list[tuple[str, ExperimentConfig]]:
    """The (row name, experiment) pairs ``run_ablation`` evaluates, in
    ``ABLATION_ROW_ORDER``; ``base`` sets the trials, map and seed."""
    # a tuple, not the dict: an unhashable entry is then unknown, not a TypeError
    names = tuple(SCORING_STRATEGIES)
    if strategies is None:
        strategies = names
    elif not isinstance(strategies, (list, tuple)) or any(
        s not in names or strategies.count(s) > 1 for s in strategies
    ):
        raise ValueError(
            f"strategies must be a list of distinct names from {list(names)}, got {strategies!r}"
        )
    _check_size("budget", budget, 0)
    own, half = SelfRecallScoring.name, budget // 2
    rows = [
        (s, replace(base, policy="lola" if s == own else f"lola-altscore:{s}",
                    window_capacity=half, sparse_capacity=budget - half))
        for s in names
        if s == own or s in strategies
    ]
    baseline = replace(base, policy="window-only", window_capacity=budget, sparse_capacity=0)
    return [*rows, ("window-extension", baseline)]
