"""Command line front end.

Subcommands: recall, ablate-scores, collisions, gram-study, distill, suite;
each takes only the flags it reads. Every artifact is a pure function of the
flags and the seed; re-runs write identical bytes. Each subcommand drops a
manifest.json next to its artifacts with the flag echo (null for a flag
left unset, which takes the config's default), seed, and per-file checksums.
recall, ablate-scores, collisions and gram-study run as one-entry suites: the
experiment their flags denote is checked as a suite config is (bad values
exit 2) and run by the suite's runner, so they write the artifacts a
one-entry ``lola suite`` would. distill saves the map ``--feature-map
distill`` fits at the same seed and shape; its flags are checked by the same
specs, so a bad value prints the rule a one-entry subcommand prints.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import __version__
from ..attention import save_feature_map
from .experiments import ExperimentConfig, resolve_feature_map
from .io import sha256_file, write_manifest
from .suite import _RUNNERS, ConfigError, _keyed, _task, run_suite, validate_config
from .synthetic import _KEY_DISTRIBUTIONS

__all__ = ["main"]


def _common_flags(p: argparse.ArgumentParser, *, seed: bool = True, records: bool = False) -> None:
    """--out-dir; --seed unless a config sets it; --format where records are written."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".", help="directory for emitted artifacts")
    if records:
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="record file format")


def _task_flags(p: argparse.ArgumentParser, *, stream: bool = True) -> None:
    """The task's flags; a distilled map reads its shape and keys, not the stream."""
    if stream:
        p.add_argument("--n", type=int, help="haystack length")
    p.add_argument("--d", type=int, help="head dimension")
    p.add_argument("--feature-dim", type=int, help="feature map width (default 2*d)")
    p.add_argument("--codebook", type=int, help="value codebook size")
    if stream:
        p.add_argument("--needles", type=int)
    p.add_argument("--distribution", choices=_KEY_DISTRIBUTIONS)
    if stream:
        p.add_argument("--feature-map", help="distill | random | path to a saved map")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lola", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recall", help="recall accuracy for one policy")
    _common_flags(p, records=True)
    _task_flags(p)
    p.add_argument("--policy")
    p.add_argument("--eta", type=int, help="sliding window capacity")
    p.add_argument("--lam", type=int, help="sparse cache capacity")
    p.add_argument("--chunk", type=int, help="chunk size; enables the prefill path")
    p.add_argument("--trials", type=int)

    p = sub.add_parser("ablate-scores", help="scoring-rule ablation at a matched budget")
    _common_flags(p, records=True)
    _task_flags(p)
    p.add_argument("--budget", type=int, help="total full-rank pairs per row")
    p.add_argument("--trials", type=int)

    p = sub.add_parser("collisions", help="collision matrices for the three policies")
    _common_flags(p)
    _task_flags(p)
    p.add_argument("--eta", type=int)
    p.add_argument("--lam", type=int)
    p.add_argument("--relative", action="store_true", help="also emit relative-error matrices")

    p = sub.add_parser("gram-study", help="exponential-kernel spectra over (n, d) grids")
    _common_flags(p)
    p.add_argument("--n-list", help="comma-separated sample counts")
    p.add_argument("--d-list", help="comma-separated dimensions")

    p = sub.add_parser("distill", help="save the map --feature-map distill fits")
    _common_flags(p)
    _task_flags(p, stream=False)
    p.add_argument("--out", default="feature_map.json")

    p = sub.add_parser("suite", help="run a declared experiment suite")
    _common_flags(p, seed=False, records=True)
    p.add_argument("--config", default=None, help="JSON suite config (default: the built-in suite)")
    return parser


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"lola gram-study: {flag} must be comma-separated integers, got {text!r}"
        ) from None


def _set(**flags) -> dict:
    """The flags set on the command line; the rest take the config's defaults."""
    return {key: value for key, value in flags.items() if value is not None}


def _one_entry(args) -> dict:
    """The one-entry suite experiment that an analysis subcommand's flags denote."""
    if args.command == "gram-study":
        lists = _set(n_list=args.n_list, d_list=args.d_list)
        lists = {key: _int_list(f"--{key.replace('_', '-')}", text) for key, text in lists.items()}
        return {"kind": "gram-study", "name": "gram_study", **lists}
    task = _set(
        n=args.n,
        d=args.d,
        feature_dim=args.feature_dim,
        distribution=args.distribution,
        codebook=args.codebook,
        needles=args.needles,
        feature_map=args.feature_map,
    )
    if args.command == "recall":
        variant = _set(policy=args.policy, window=args.eta, sparse=args.lam, chunk=args.chunk)
        entry = {"kind": "recall", "name": "recall", **task, **_set(trials=args.trials)}
        return {**entry, "variants": [{"name": "recall", **variant}]}
    if args.command == "ablate-scores":
        budget = _set(budget=args.budget, trials=args.trials)
        return {"kind": "ablation", "name": "score_ablation", **task, **budget}
    window = _set(window=args.eta, sparse=args.lam)
    return {"kind": "collisions", "name": "collisions", **task, **window, "relative": args.relative}


def _finish(out_dir: Path, args, files: list[Path]) -> int:
    echo = {k: v for k, v in vars(args).items() if k != "out_dir"}
    write_manifest(
        out_dir / "manifest.json",
        config_echo=echo,
        seed=args.seed,
        version=__version__,
        files={p.name: sha256_file(p) for p in files},
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    # every value is checked before any file is written; a bad one exits 2
    try:
        if args.command == "suite":
            # run_suite checks the whole config before it writes a file
            return run_suite(args.config or None, out_dir=out_dir, fmt=args.format)
        if args.command == "distill":
            # the fit reads the task's key statistics, not its stream
            flags = _set(
                d=args.d,
                feature_dim=args.feature_dim,
                codebook=args.codebook,
                distribution=args.distribution,
            )
            with _keyed(f"lola {args.command}"):
                task, attn = _task(flags, args.seed)
        else:
            # recall, ablate-scores, collisions and gram-study run as one-entry suites
            exp = _one_entry(args)
            config = {"seed": args.seed, "experiments": [exp]}
            (plan,) = validate_config(config, source=f"lola {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "distill":
        params = resolve_feature_map(ExperimentConfig(seed=args.seed), task, attn)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / args.out
        save_feature_map(params, path)
        print(f"wrote {path}")
        return _finish(out_dir, args, [path])
    out_dir.mkdir(parents=True, exist_ok=True)
    # collision matrices and spectra are always CSV
    paths, result = _RUNNERS[exp["kind"]](exp, plan, out_dir, getattr(args, "format", "csv"), [])
    if args.command == "recall":
        print(f"accuracy {result[0].accuracy:.4f} ({result[0].policy}); wrote {paths[0]}")
    elif args.command == "ablate-scores":
        for r in result:
            print(f"{r.name:>18}: accuracy {r.accuracy:.4f}")
        print(f"wrote {paths[0]}")
    elif args.command == "collisions":
        for policy, mean in result.items():
            path = out_dir / f"collisions-{policy}.csv"
            print(f"{policy:>12}: mean absorbed error {mean:.4f}; wrote {path}")
    else:
        print(f"wrote {paths[0]}")
    return _finish(out_dir, args, paths)


if __name__ == "__main__":
    raise SystemExit(main())
