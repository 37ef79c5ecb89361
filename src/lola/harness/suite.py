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
from contextlib import contextmanager
from dataclasses import asdict, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from .. import __version__
from ..analysis import (
    POLICIES,
    _study_grid,
    collision_matrix,
    mean_absorbed_error,
    rank_study,
    relative_to_absorption,
    write_collision_csv,
    write_gram_csv,
)
from ..attention import AttentionConfig, _check_fits, _check_size, _rekey, load_feature_map
from .experiments import (
    EXPECTED_ACCURACY_ORDER,
    RECORD_COLUMNS,
    ExperimentConfig,
    ResultRecord,
    _BUDGET,
    _ablation_rows,
    eval_recall,
    resolve_feature_map,
)
from .io import sha256_file, write_manifest, write_rows_csv, write_rows_json
from .synthetic import SyntheticTaskSpec, gen_niah

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
# config key -> the spec field it sets, where the two names differ
_FIELDS = {
    "n": "haystack_len",
    "needles": "needle_count",
    "d": "head_dim",
    "distribution": "key_distribution",
    "codebook": "value_codebook_size",
    "window": "window_capacity",
    "sparse": "sparse_capacity",
    "chunk": "chunk_size",
}
_KEYS = {field: key for key, field in _FIELDS.items()}
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
    config = _read_config(path)
    validate_config(config, source=str(path))
    return config


def _read_config(path):
    """``load_config`` without the validation."""
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
    return config


def validate_config(config, source: str = "<config>") -> list[tuple]:
    """Check a suite config and return each experiment's plan, in order: the
    specs its runner takes. Each value is checked by the spec that holds it,
    and a spec's error is raised as a ``ConfigError`` naming the config key."""
    if not isinstance(config, dict):
        raise ConfigError(f"{source}: top level must be an object")
    unknown = set(config) - {"seed", "experiments"}
    if unknown:
        raise ConfigError(f"{source}: unknown top-level keys {sorted(unknown)}")
    seed = config.get("seed", 0)
    with _keyed(source):
        _check_size("seed", seed, 0)
    experiments = config.get("experiments")
    if not isinstance(experiments, list):
        raise ConfigError(f"{source}: 'experiments' must be a list")
    plans = []
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
        for field, allowed in (("variants", _VARIANT_KEYS), ("checks", _CHECK_KEYS)):
            entries = exp.get(field, [])
            if not isinstance(entries, list):
                raise ConfigError(f"{where}: {field!r} must be a list")
            for j, entry in enumerate(entries):
                at = f"{where}.{field}[{j}]"
                if not isinstance(entry, dict):
                    raise ConfigError(f"{at}: must be an object, got {entry!r}")
                bad = set(entry) - allowed
                if bad:
                    raise ConfigError(f"{at}: unknown keys {sorted(bad)}")
                if field == "variants" and not isinstance(entry.get("name", ""), str):
                    raise ConfigError(f"{at}: 'name' must be a string, got {entry['name']!r}")
        plans.append(_plan(exp, seed, where))
        for artifact in _artifacts(exp):
            if artifact in written:
                owner = written[artifact]
                by = "the manifest" if owner < 0 else f"experiments[{owner}]"
                raise ConfigError(f"{where}: artifact {artifact!r} is also written by {by}")
            written[artifact] = i
    return plans


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


@contextmanager
def _keyed(where: str):
    """Raise a spec's ``ValueError`` as a ``ConfigError`` at ``where`` that
    names the config key."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {_rekey(exc, _KEYS)}") from None


def _given(entry: dict, *keys: str, **defaults) -> dict:
    """Spec arguments, under the spec's field names, for the ``keys`` and
    ``defaults`` that ``entry`` sets. A key it leaves out takes its value in
    ``defaults``, or else the spec's own default."""
    values = {**defaults, **{key: entry[key] for key in (*keys, *defaults) if key in entry}}
    return {_FIELDS.get(key, key): value for key, value in values.items()}


def _task(exp: dict, seed: int) -> tuple[SyntheticTaskSpec, AttentionConfig]:
    """The task and head shape that an entry's task keys denote."""
    task = SyntheticTaskSpec(
        **_given(exp, "needles", "d", "codebook", n=256, distribution="clustered"), seed=seed
    )
    return task, AttentionConfig(task.head_dim, **_given(exp, "feature_dim"))


def _plan(exp: dict, seed: int, where: str) -> tuple:
    """What an experiment's runner takes, built once: a Gram study's grid and
    seed, or the task, head shape and runs of the other kinds. A default that
    no spec holds is written here."""
    seed = exp.get("seed", seed)
    with _keyed(where):
        if exp["kind"] == "gram-study":
            n_list, d_list, _ = _study_grid(exp.get("n_list", [64, 128, 256]), exp.get("d_list", [8, 16]), seed)
            return sorted(n_list), sorted(d_list), seed
        task, attn = _task(exp, seed)
        base = ExperimentConfig(**_given(exp, "trials", "feature_map", "feature_dim"), seed=seed)
        if exp["kind"] == "collisions":
            base = replace(base, **_given(exp, window=32, sparse=32))
        elif exp["kind"] == "ablation":
            runs = _ablation_rows(base, exp.get("strategies"), exp.get("budget", _BUDGET))
    _check_feature_map(where, base.feature_map, attn)
    if exp["kind"] == "collisions":
        return task, attn, base
    if exp["kind"] == "recall":
        runs = []
        for j, var in enumerate(exp.get("variants", [{}])):
            with _keyed(f"{where}.variants[{j}]"):
                run = replace(base, **_given(var, "policy", "window", "sparse", "chunk"))
            # checks find records by name
            names = [name for name, _ in runs]
            name = var.get("name", run.policy)
            if name in names:
                raise ConfigError(
                    f"{where}.variants[{j}]: 'name' {name!r} (the policy when unset) repeats "
                    f"variants[{names.index(name)}]"
                )
            runs.append((name, run))
    return task, attn, runs


def _check_feature_map(where: str, fmap, attn: AttentionConfig) -> None:
    """A saved map must parse and have the experiment's shape."""
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
    try:
        _check_fits(params, attn)
    except ValueError as exc:
        raise ConfigError(f"{where}: 'feature_map' {fmap!r} does not fit: {exc}") from None


# Every runner takes an experiment and the plan ``validate_config`` built for
# it, writes the experiment's artifacts into ``out``, appends its graded
# checks to ``checks_out`` and returns the paths it wrote, in write order,
# with what the command line reports: the records, or the mean absorbed
# error by policy, or the spectra.


def _run_records(exp: dict, plan: tuple, out: Path, fmt: str, checks_out: list):
    """A recall or ablation experiment: one record per planned run."""
    task, _, runs = plan
    records = [eval_recall(run, task, name=name) for name, run in runs]
    path = out / f"{exp['name']}.{fmt}"
    rows = [asdict(r) for r in records]
    (write_rows_json if fmt == "json" else write_rows_csv)(path, RECORD_COLUMNS, rows)
    by_name = {r.name: r for r in records}
    for chk in exp.get("checks", []):
        checks_out.append(_grade_recall_check(exp["name"], chk, by_name))
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


def _run_collisions(exp: dict, plan: tuple, out: Path, fmt: str, checks_out: list):
    """Replay the task's stream once under each policy and write
    ``<name>-<policy>.csv``, plus ``<name>-<policy>-relative.csv`` when
    ``relative``."""
    task, attn, run = plan
    inst = gen_niah(task)
    params = resolve_feature_map(run, task, attn)
    window, sparse = run.window_capacity, run.sparse_capacity
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


def _run_gram(exp: dict, plan: tuple, out: Path, fmt: str, checks_out: list):
    n_list, d_list, seed = plan
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


_RUNNERS = {
    "recall": _run_records,
    "ablation": _run_records,
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
    source = "<config>"
    if config is None:
        config = DEFAULT_SUITE
    elif not isinstance(config, dict):
        # a file is read once and validated once, under its own name
        config, source = _read_config(config), str(config)
    plans = validate_config(config, source=source)
    seed = config.get("seed", 0)
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    out = Path(out_dir) / f"suite-{stamp}"
    out.mkdir(parents=True, exist_ok=True)

    files: dict[str, str] = {}
    checks: list[dict] = []
    timings: dict[str, float] = {}
    try:
        for exp, plan in zip(config["experiments"], plans):
            t0 = time.perf_counter()
            paths, _ = _RUNNERS[exp["kind"]](exp, plan, out, fmt, checks)
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
