"""Command line front end.

Subcommands: recall, ablate-scores, collisions, gram-study, distill, suite;
each takes only the flags it reads. Every artifact is a pure function of the
flags and the seed; re-runs write identical bytes. Each subcommand drops a
manifest.json next to its artifacts with the flag echo, seed, and per-file
checksums. recall, ablate-scores, collisions and gram-study run as one-entry
suites: the experiment their flags denote is checked as a suite config is
(bad values exit 2) and run by the suite's runner, so they write the
artifacts a one-entry ``lola suite`` would. distill saves the map
``--feature-map distill`` fits at the same seed and shape.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import __version__
from ..attention import AttentionConfig, save_feature_map
from .experiments import ExperimentConfig, resolve_feature_map
from .io import sha256_file, write_manifest
from .suite import _RUNNERS, ConfigError, load_config, run_suite, validate_config
from .synthetic import _KEY_DISTRIBUTIONS, SyntheticTaskSpec

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
        p.add_argument("--n", type=int, default=256, help="haystack length")
    p.add_argument("--d", type=int, default=16, help="head dimension")
    p.add_argument("--feature-dim", type=int, default=None, help="feature map width (default 2*d)")
    p.add_argument("--codebook", type=int, default=16, help="value codebook size")
    if stream:
        p.add_argument("--needles", type=int, default=1)
    p.add_argument("--distribution", choices=_KEY_DISTRIBUTIONS, default="clustered")
    if stream:
        p.add_argument("--feature-map", default="distill", help="distill | random | path to a saved map")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lola", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recall", help="recall accuracy for one policy")
    _common_flags(p, records=True)
    _task_flags(p)
    p.add_argument("--policy", default="lola")
    p.add_argument("--eta", type=int, default=64, help="sliding window capacity")
    p.add_argument("--lam", type=int, default=64, help="sparse cache capacity")
    p.add_argument("--chunk", type=int, default=None, help="chunk size; enables the prefill path")
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("ablate-scores", help="scoring-rule ablation at a matched budget")
    _common_flags(p, records=True)
    _task_flags(p)
    p.add_argument("--budget", type=int, default=128, help="total full-rank pairs per row")
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("collisions", help="collision matrices for the three policies")
    _common_flags(p)
    _task_flags(p)
    p.add_argument("--eta", type=int, default=32)
    p.add_argument("--lam", type=int, default=32)
    p.add_argument("--relative", action="store_true", help="also emit relative-error matrices")

    p = sub.add_parser("gram-study", help="exponential-kernel spectra over (n, d) grids")
    _common_flags(p)
    p.add_argument("--n-list", default="64,128,256", help="comma-separated sample counts")
    p.add_argument("--d-list", default="8,16", help="comma-separated dimensions")

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


def _one_entry(args) -> dict:
    """The one-entry suite experiment that an analysis subcommand's flags denote."""
    if args.command == "gram-study":
        return {
            "kind": "gram-study",
            "name": "gram_study",
            "n_list": _int_list("--n-list", args.n_list),
            "d_list": _int_list("--d-list", args.d_list),
        }
    task = {
        "n": args.n,
        "d": args.d,
        "feature_dim": args.feature_dim,
        "distribution": args.distribution,
        "codebook": args.codebook,
        "needles": args.needles,
        "feature_map": args.feature_map,
    }
    if args.command == "recall":
        variant = {
            "name": "recall",
            "policy": args.policy,
            "window": args.eta,
            "sparse": args.lam,
            "chunk": args.chunk,
        }
        return {"kind": "recall", "name": "recall", **task, "trials": args.trials, "variants": [variant]}
    if args.command == "ablate-scores":
        return {
            "kind": "ablation",
            "name": "score_ablation",
            **task,
            "budget": args.budget,
            "trials": args.trials,
        }
    return {
        "kind": "collisions",
        "name": "collisions",
        **task,
        "window": args.eta,
        "sparse": args.lam,
        "relative": args.relative,
    }


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
            config = load_config(args.config) if args.config else None
        elif args.command == "distill":
            # the seed is checked as a suite config's is
            validate_config({"seed": args.seed, "experiments": []}, source=f"lola {args.command}")
            # the fit reads the task's key statistics, not its stream length
            task = SyntheticTaskSpec(
                1, head_dim=args.d, key_distribution=args.distribution, value_codebook_size=args.codebook
            )
            attn = AttentionConfig(args.d, args.feature_dim)
        else:
            # recall, ablate-scores, collisions and gram-study run as one-entry suites
            exp = _one_entry(args)
            validate_config({"seed": args.seed, "experiments": [exp]}, source=f"lola {args.command}")
    except ValueError as exc:
        where = "" if isinstance(exc, ConfigError) else f"lola {args.command}: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2

    if args.command == "suite":
        return run_suite(config, out_dir=out_dir, fmt=args.format)
    if args.command == "distill":
        params = resolve_feature_map(ExperimentConfig(seed=args.seed), task, attn)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / args.out
        save_feature_map(params, path)
        print(f"wrote {path}")
        return _finish(out_dir, args, [path])
    out_dir.mkdir(parents=True, exist_ok=True)
    # collision matrices and spectra are always CSV
    paths, result = _RUNNERS[exp["kind"]](exp, args.seed, out_dir, getattr(args, "format", "csv"), [])
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
