"""Experiment orchestration: run a declared list of experiments, emit records,
matrices and a checksummed manifest, and grade the declared expectations.

The config is a JSON object with a ``seed`` and an ``experiments`` list; every
experiment has a ``kind`` (recall, ablation, collisions, gram-study), a
``name``, kind-specific fields, and optional expectation fields. Unknown keys
are rejected. Exit status: 0 when every expectation holds, 1 when one fails,
2 for a malformed config. Artifacts are written as each experiment completes,
so partial results survive a failing run.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from datetime import datetime
from pathlib import Path

import numpy as np

from .. import __version__
from ..analysis import (
    _DECODE_POLICIES,
    POLICIES,
    collision_matrix,
    mean_absorbed_error,
    rank_study,
    relative_to_absorption,
    write_collision_csv,
    write_gram_csv,
)
from ..attention import AttentionConfig, load_feature_map
from ..cache import SCORING_STRATEGIES
from .experiments import (
    _CHUNKED_POLICIES,
    EXPECTED_ACCURACY_ORDER,
    RECORD_COLUMNS,
    ExperimentConfig,
    ResultRecord,
    eval_recall,
    resolve_feature_map,
    run_ablation,
)
from .io import sha256_file, write_manifest, write_rows_csv, write_rows_json
from .synthetic import _KEY_DISTRIBUTIONS, SyntheticTaskSpec, gen_niah

__all__ = [
    "DEFAULT_SUITE",
    "ConfigError",
    "load_config",
    "run_suite",
    "validate_config",
]


class ConfigError(ValueError):
    """Malformed suite configuration."""


_TASK_KEYS = {"n", "d", "feature_dim", "distribution", "codebook", "needles", "seed"}
_ALLOWED = {
    "recall": _TASK_KEYS | {"kind", "name", "trials", "feature_map", "variants", "checks"},
    "ablation": _TASK_KEYS
    | {"kind", "name", "trials", "feature_map", "budget", "strategies", "check_order"},
    "collisions": _TASK_KEYS
    | {"kind", "name", "window", "sparse", "feature_map", "relative", "check_ordering"},
    "gram-study": {"kind", "name", "n_list", "d_list", "check_dominance", "seed"},
}
_VARIANT_KEYS = {"name", "policy", "window", "sparse", "chunk"}
# integer fields, wherever they appear; a null chunk means the decode path
_INT_KEYS = (
    "n", "d", "codebook", "needles", "window", "sparse", "trials", "budget", "chunk", "seed"
)
# the least value of each integer field that a run can use
_INT_MIN = {
    "n": 1, "d": 1, "codebook": 2, "needles": 1, "window": 0, "sparse": 0,
    "trials": 1, "budget": 0, "chunk": 1, "seed": 0,
}
_CHECK_KEYS = {"type", "variant", "a", "b", "value", "variants"}


DEFAULT_SUITE = {
    "seed": 7,
    "experiments": [
        {
            "kind": "recall",
            "name": "recall-matched-budget",
            "n": 256,
            "d": 16,
            "distribution": "clustered",
            "codebook": 16,
            "needles": 1,
            "trials": 120,
            "feature_map": "distill",
            "variants": [
                {"name": "lola-0", "policy": "lola", "window": 32, "sparse": 0},
                {"name": "lola-16", "policy": "lola", "window": 32, "sparse": 16},
                {"name": "lola-32", "policy": "lola", "window": 32, "sparse": 32},
                {"name": "window-64", "policy": "window-only", "window": 64, "sparse": 0},
                {"name": "lola-prefill", "policy": "lola", "window": 0, "sparse": 32, "chunk": 32},
            ],
            "checks": [
                {"type": "min-gap", "a": "lola-32", "b": "window-64", "value": 0.15},
                # the curve saturates past the first rung; the unsaturated
                # step is the meaningful monotone check at this trial count
                {"type": "nondecreasing", "variants": ["lola-0", "lola-16"]},
                {"type": "min-accuracy", "variant": "lola-32", "value": 0.8},
                {"type": "min-accuracy", "variant": "lola-prefill", "value": 0.5},
            ],
        },
        {
            "kind": "ablation",
            "name": "scoring-ablation",
            "n": 256,
            "d": 16,
            "distribution": "clustered",
            "codebook": 16,
            "needles": 1,
            "budget": 64,
            "trials": 120,
            "feature_map": "distill",
            "check_order": True,
        },
        {
            "kind": "collisions",
            "name": "collision-matrices",
            "n": 128,
            "d": 16,
            "distribution": "clustered",
            "codebook": 16,
            "needles": 1,
            "window": 24,
            "sparse": 24,
            "feature_map": "distill",
            "relative": True,
            "check_ordering": True,
        },
        {
            "kind": "gram-study",
            "name": "gram-study",
            "n_list": [64, 128, 256],
            "d_list": [8, 64],
            "check_dominance": True,
        },
    ],
}


def load_config(path) -> dict:
    """Parse and validate a suite config file; a file that cannot be read
    as UTF-8 text is a ``ConfigError`` naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte {exc.start} ({exc.reason})") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    validate_config(config, source=str(path))
    return config


def validate_config(config, source: str = "<config>") -> None:
    if not isinstance(config, dict):
        raise ConfigError(f"{source}: top level must be an object")
    unknown = set(config) - {"seed", "experiments"}
    if unknown:
        raise ConfigError(f"{source}: unknown top-level keys {sorted(unknown)}")
    # the one integer field at the top level
    _check_ints(source, config)
    experiments = config.get("experiments")
    if not isinstance(experiments, list):
        raise ConfigError(f"{source}: 'experiments' must be a list")
    seen: dict[str, int] = {}
    # artifact file name -> the experiment that writes it, under either format
    written: dict[str, int] = {"manifest.json": -1}
    for i, exp in enumerate(experiments):
        where = f"{source}: experiments[{i}]"
        if not isinstance(exp, dict):
            raise ConfigError(f"{where}: must be an object")
        kind = exp.get("kind")
        if kind not in _ALLOWED:
            raise ConfigError(f"{where}: unknown kind {kind!r}; have {sorted(_ALLOWED)}")
        name = exp.get("name")
        if not isinstance(name, str):
            raise ConfigError(f"{where}: 'name' (string) is required")
        # artifact file names start with the experiment name
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ConfigError(f"{where}: 'name' {name!r} is not a plain file name")
        if name in seen:
            raise ConfigError(f"{where}: 'name' {name!r} repeats experiments[{seen[name]}]")
        seen[name] = i
        where = f"{where} ({name!r})"
        unknown = set(exp) - _ALLOWED[kind]
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)} for kind {kind!r}")
        _check_ints(where, exp)
        _check_choices(where, exp)
        if exp.get("needles", 1) > exp.get("n", 256):
            raise ConfigError(f"{where}: 'needles' {exp['needles']} exceeds 'n' {exp.get('n', 256)}")
        for field, allowed in (("variants", _VARIANT_KEYS), ("checks", _CHECK_KEYS)):
            entries = exp.get(field, [])
            if not isinstance(entries, list):
                raise ConfigError(f"{where}: {field!r} must be a list")
            # variant names as ``_run_recall`` takes them; checks find records by name
            names = []
            for j, entry in enumerate(entries):
                at = f"{where}.{field}[{j}]"
                if not isinstance(entry, dict):
                    raise ConfigError(f"{at}: must be an object, got {entry!r}")
                bad = set(entry) - allowed
                if bad:
                    raise ConfigError(f"{at}: unknown keys {sorted(bad)}")
                if field == "variants":
                    _check_ints(at, entry)
                    _check_policy(at, entry)
                    if not isinstance(entry.get("name", ""), str):
                        raise ConfigError(f"{at}: 'name' must be a string, got {entry['name']!r}")
                    names.append(entry.get("name", entry.get("policy", "lola")))
                    if names[-1] in names[:-1]:
                        raise ConfigError(
                            f"{at}: 'name' {names[-1]!r} (the policy when unset) repeats "
                            f"variants[{names.index(names[-1])}]"
                        )
        for artifact in _artifacts(exp):
            if artifact in written:
                owner = written[artifact]
                by = "the manifest" if owner < 0 else f"experiments[{owner}]"
                raise ConfigError(f"{where}: artifact {artifact!r} is also written by {by}")
            written[artifact] = i


def _artifacts(exp: dict) -> list[str]:
    """Every file name an experiment may write, under either record format."""
    name = exp["name"]
    if exp["kind"] == "gram-study":
        return [f"{name}.csv"]
    if exp["kind"] != "collisions":
        return [f"{name}.csv", f"{name}.json"]
    tails = [f"-{p}" for p in POLICIES]
    if exp.get("relative"):
        tails += [f"-{p}-relative" for p in POLICIES]
    return [f"{name}{tail}.csv" for tail in tails]


def _check_ints(where: str, entry: dict) -> None:
    for key in _INT_KEYS:
        value = entry.get(key)
        if value is None and (key == "chunk" or key not in entry):
            continue
        if type(value) is not int:
            raise ConfigError(f"{where}: {key!r} must be an integer, got {value!r}")
        if key in _INT_MIN and value < _INT_MIN[key]:
            raise ConfigError(f"{where}: {key!r} must be >= {_INT_MIN[key]}, got {value}")


def _check_choices(where: str, exp: dict) -> None:
    """The fields besides sizes that a run would reject partway through."""
    fdim = exp.get("feature_dim")
    if fdim is not None and (type(fdim) is not int or fdim < 2 or fdim % 2):
        raise ConfigError(
            f"{where}: 'feature_dim' must be null or an even integer >= 2, got {fdim!r}"
        )
    dist = exp.get("distribution", "clustered")
    if dist not in _KEY_DISTRIBUTIONS:
        raise ConfigError(
            f"{where}: 'distribution' must be one of {list(_KEY_DISTRIBUTIONS)}, got {dist!r}"
        )
    strategies = exp.get("strategies")
    # a tuple, not the dict: an unhashable entry is then unknown, not a TypeError
    names = tuple(SCORING_STRATEGIES)
    if strategies is not None and (
        not isinstance(strategies, list)
        or any(s not in names or s in strategies[:j] for j, s in enumerate(strategies))
    ):
        raise ConfigError(
            f"{where}: 'strategies' must be null or a list of distinct names from {list(names)}, "
            f"got {strategies!r}"
        )
    for key in ("n_list", "d_list"):
        values = exp.get(key, [1])
        if not isinstance(values, list) or not values or any(type(v) is not int or v < 1 for v in values):
            raise ConfigError(
                f"{where}: {key!r} must be a non-empty list of integers >= 1, got {values!r}"
            )
    fmap = exp.get("feature_map", "distill")
    if fmap in ("distill", "random"):
        return
    if not isinstance(fmap, str):
        raise ConfigError(
            f"{where}: 'feature_map' must be 'distill', 'random' or a path to a saved map, got {fmap!r}"
        )
    try:
        params = load_feature_map(fmap)
    except OSError as exc:
        raise ConfigError(f"{where}: 'feature_map' cannot be read: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: 'feature_map' is malformed: {exc}") from None
    d = exp.get("d", 16)
    shape, want = (params.head_dim, params.feature_dim), (d, fdim or 2 * d)
    if shape != want:
        raise ConfigError(
            f"{where}: 'feature_map' {fmap!r} has head_dim, feature_dim {shape}; "
            f"the experiment needs {want}"
        )


def _check_policy(where: str, variant: dict) -> None:
    policy = variant.get("policy", "lola")
    if variant.get("chunk") is not None:
        allowed, path = _CHUNKED_POLICIES, "the chunked path"
    else:
        allowed, path = _DECODE_POLICIES, "the decode path"
    if policy not in allowed:
        raise ConfigError(
            f"{where}: 'policy' {policy!r} is not a policy {path} runs; have {list(allowed)}"
        )


def _task_from(exp: dict, seed: int) -> SyntheticTaskSpec:
    return SyntheticTaskSpec(
        haystack_len=exp.get("n", 256),
        needle_count=exp.get("needles", 1),
        head_dim=exp.get("d", 16),
        key_distribution=exp.get("distribution", "clustered"),
        value_codebook_size=exp.get("codebook", 16),
        seed=exp.get("seed", seed),
    )


# Every runner writes one experiment's artifacts into ``out``, appends its
# graded checks to ``checks_out`` and returns the paths it wrote, in write
# order, with what the command line reports: the records, or the mean
# absorbed error by policy, or the spectra.


def _run_recall(exp: dict, seed: int, out: Path, fmt: str, checks_out: list):
    seed = exp.get("seed", seed)
    task = _task_from(exp, seed)
    records = []
    for var in exp.get("variants", [{"name": "lola", "policy": "lola"}]):
        cfg = ExperimentConfig(
            policy=var.get("policy", "lola"),
            window_capacity=var.get("window", 64),
            sparse_capacity=var.get("sparse", 64),
            chunk_size=var.get("chunk"),
            trials=exp.get("trials", 100),
            feature_map=exp.get("feature_map", "distill"),
            feature_dim=exp.get("feature_dim"),
            seed=seed,
        )
        records.append(eval_recall(cfg, task, name=var.get("name", var.get("policy", "lola"))))
    path = out / f"{exp['name']}.{fmt}"
    _write_records(path, records, fmt)
    by_name = {r.name: r for r in records}
    for chk in exp.get("checks", []):
        checks_out.append(_grade_recall_check(exp["name"], chk, by_name))
    return [path], records


def _grade_recall_check(exp_name: str, chk: dict, by_name: dict) -> dict:
    kind = chk.get("type")
    try:
        if kind == "min-accuracy":
            acc = by_name[chk["variant"]].accuracy
            passed = acc >= chk["value"]
            detail = f"accuracy({chk['variant']})={acc:.4f} >= {chk['value']}"
        elif kind == "min-gap":
            gap = by_name[chk["a"]].accuracy - by_name[chk["b"]].accuracy
            passed = gap >= chk["value"]
            detail = f"accuracy({chk['a']}) - accuracy({chk['b']}) = {gap:.4f} >= {chk['value']}"
        elif kind == "nondecreasing":
            accs = [by_name[v].accuracy for v in chk["variants"]]
            passed = all(b >= a for a, b in zip(accs, accs[1:]))
            detail = f"accuracies {['%.4f' % a for a in accs]} nondecreasing"
        else:
            passed, detail = False, f"unknown check type {kind!r}"
    except KeyError as exc:
        passed, detail = False, f"check references unknown variant {exc}"
    return {"experiment": exp_name, "check": kind, "passed": bool(passed), "detail": detail}


def order_inversions(records: list[ResultRecord], expected: list[str]) -> list[tuple[str, str, int]]:
    """Strict accuracy inversions against an expected ordering, with their span."""
    by_name = {r.name: r for r in records}
    bad = []
    for i, hi in enumerate(expected):
        for j in range(i + 1, len(expected)):
            lo = expected[j]
            if hi in by_name and lo in by_name and by_name[lo].accuracy > by_name[hi].accuracy:
                bad.append((lo, hi, j - i))
    return bad


def _run_ablation(exp: dict, seed: int, out: Path, fmt: str, checks_out: list):
    seed = exp.get("seed", seed)
    task = _task_from(exp, seed)
    records = run_ablation(
        task,
        strategies=exp.get("strategies"),
        budget=exp.get("budget", 128),
        trials=exp.get("trials", 100),
        seed=seed,
        feature_map=exp.get("feature_map", "distill"),
        feature_dim=exp.get("feature_dim"),
    )
    path = out / f"{exp['name']}.{fmt}"
    _write_records(path, records, fmt)
    if exp.get("check_order"):
        # adjacent swaps tolerated; a strict inversion spanning 2+ ranks fails
        bad = [t for t in order_inversions(records, EXPECTED_ACCURACY_ORDER) if t[2] >= 2]
        checks_out.append(
            {
                "experiment": exp["name"],
                "check": "score-ordering",
                "passed": not bad,
                "detail": "no long-range inversions" if not bad else f"inversions {bad}",
            }
        )
    return [path], records


def _run_collisions(exp: dict, seed: int, out: Path, fmt: str, checks_out: list):
    """Replay the task's stream once under each policy and write
    ``<name>-<policy>.csv``, plus ``<name>-<policy>-relative.csv`` when
    ``relative``."""
    task = _task_from(exp, seed)
    inst = gen_niah(task)
    attn = AttentionConfig(task.head_dim, exp.get("feature_dim"))
    params = resolve_feature_map(
        ExperimentConfig(feature_map=exp.get("feature_map", "distill"), seed=task.seed), task, attn
    )
    window, sparse = exp.get("window", 32), exp.get("sparse", 32)
    paths = []
    means = {}
    for policy in POLICIES:
        cm = collision_matrix(inst.keys, inst.values, policy, window, sparse, attn, params)
        means[policy] = mean_absorbed_error(cm)
        paths.append(out / f"{exp['name']}-{policy}.csv")
        write_collision_csv(cm, paths[-1])
        if exp.get("relative"):
            paths.append(out / f"{exp['name']}-{policy}-relative.csv")
            write_collision_csv(relative_to_absorption(cm), paths[-1])
    if exp.get("check_ordering"):
        ok = means["lola"] <= means["window-only"] <= means["linear-only"]
        checks_out.append(
            {
                "experiment": exp["name"],
                "check": "collision-ordering",
                "passed": bool(ok),
                "detail": "mean absorbed error "
                + " / ".join(f"{p}={means[p]:.4f}" for p in ("lola", "window-only", "linear-only")),
            }
        )
    return paths, means


def _run_gram(exp: dict, seed: int, out: Path, fmt: str, checks_out: list):
    seed = exp.get("seed", seed)
    n_list = sorted(exp.get("n_list", [64, 128, 256]))
    d_list = sorted(exp.get("d_list", [8, 16]))
    results = rank_study(n_list, d_list, seed)
    path = out / f"{exp['name']}.csv"
    write_gram_csv(results, path)
    if exp.get("check_dominance"):
        ok, detail = True, "larger n and larger d dominate at every shared rank"
        by = {(r.n, r.d): r for r in results}
        for d in d_list:
            for n_small, n_big in zip(n_list, n_list[1:]):
                shared = n_small + 1
                a = by[(n_big, d)].truncated_errors[:shared]
                b = by[(n_small, d)].truncated_errors[:shared]
                if not np.all(a >= b):
                    ok, detail = False, f"n-dominance failed at d={d}: {n_big} vs {n_small}"
        for n in n_list:
            for d_small, d_big in zip(d_list, d_list[1:]):
                a = by[(n, d_big)].truncated_errors
                b = by[(n, d_small)].truncated_errors
                if not np.all(a >= b):
                    ok, detail = False, f"d-dominance failed at n={n}: {d_big} vs {d_small}"
        checks_out.append(
            {"experiment": exp["name"], "check": "gram-dominance", "passed": ok, "detail": detail}
        )
    return [path], results


def _write_records(path: Path, records: list[ResultRecord], fmt: str) -> None:
    rows = [asdict(r) for r in records]
    if fmt == "json":
        write_rows_json(path, RECORD_COLUMNS, rows)
    else:
        write_rows_csv(path, RECORD_COLUMNS, rows)


_RUNNERS = {
    "recall": _run_recall,
    "ablation": _run_ablation,
    "collisions": _run_collisions,
    "gram-study": _run_gram,
}


def run_suite(config: dict | str | Path | None = None, out_dir=".", fmt: str = "csv") -> int:
    """Run every declared experiment under a fresh timestamped directory.

    Returns the process exit status; the manifest is written even when an
    expectation fails, and each experiment's artifacts land on disk as soon
    as the experiment completes.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")
    if config is None:
        config = DEFAULT_SUITE
    elif not isinstance(config, dict):
        config = load_config(config)
    else:
        validate_config(config)
    seed = config.get("seed", 0)
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    out = Path(out_dir) / f"suite-{stamp}"
    out.mkdir(parents=True, exist_ok=True)

    files: dict[str, str] = {}
    checks: list[dict] = []
    timings: dict[str, float] = {}
    try:
        for exp in config.get("experiments", []):
            t0 = time.perf_counter()
            paths, _ = _RUNNERS[exp["kind"]](exp, seed, out, fmt, checks)
            files.update((p.name, sha256_file(p)) for p in paths)
            timings[exp["name"]] = time.perf_counter() - t0
    finally:
        write_manifest(
            out / "manifest.json",
            config_echo=config,
            seed=seed,
            version=__version__,
            files=files,
            checks=checks,
            timings=timings,
        )
    failed = [c for c in checks if not c["passed"]]
    return 1 if failed else 0
