"""Command line driver.

Subcommands: generate (SBM data files), embed, evaluate, project, and run
(the full pipeline plus manifest). Exit codes: 0 success, 1 runtime
failure, 2 configuration failure.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import ConfigError, apply_overrides, from_dict, read_raw
from .pipeline import run_experiment, write_data
from .sbm import SbmParams, diminish_series


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynembed",
                                     description="Dynamic graph embedding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write dynamic SBM snapshot/label/migration files")
    # each flag's dest is its SbmParams field, and SbmParams gives the defaults
    gen.add_argument("--nodes", dest="node_num", type=int, required=True, help="number of nodes")
    gen.add_argument("--communities", dest="community_num", type=int, required=True,
                     help="number of communities")
    gen.add_argument("--length", type=int, required=True, help="number of snapshots")
    gen.add_argument("--migrate", dest="node_change_num", type=int, required=True,
                     help="nodes leaving the diminishing community per step")
    gen.add_argument("--diminish", dest="diminish_community", type=int,
                     default=SbmParams.diminish_community,
                     help="index of the diminishing community (default %(default)s)")
    gen.add_argument("--p-in", type=float, default=SbmParams.p_in,
                     help="within-community edge probability (default %(default)s)")
    gen.add_argument("--p-out", type=float, default=SbmParams.p_out,
                     help="between-community edge probability (default %(default)s)")
    gen.add_argument("--seed", type=int, default=SbmParams.seed,
                     help="generator seed (default %(default)s)")
    gen.add_argument("--outdir", default=".")
    gen.set_defaults(func=cmd_generate)

    for name, help_text in (
        ("embed", "generate/load data and write embeddings"),
        ("evaluate", "embed plus evaluation reports"),
        ("project", "embed plus 2-D projection exports"),
        ("run", "full pipeline plus manifest"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--outdir", default=None, help="override config outdir")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="dotted config override, e.g. method.d=64")
        cmd.set_defaults(func=cmd_pipeline, stage=name)
    return parser


def cmd_generate(args) -> int:
    try:
        params = SbmParams(**{f.name: getattr(args, f.name) for f in fields(SbmParams)})
    except ValueError as exc:
        print(f"error: invalid SBM parameters: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for path in write_data(diminish_series(params), outdir):
        print(path)
    return 0


def cmd_pipeline(args) -> int:
    raw = read_raw(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.outdir is not None:
        raw["outdir"] = args.outdir
    raw = apply_overrides(raw, args.set)
    cfg = from_dict(raw)
    result = run_experiment(cfg, stage=args.stage)
    for name in sorted(result["files"]):
        print(Path(result["outdir"]) / name)
    if args.stage == "run":
        print(Path(result["outdir"]) / "manifest.json")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
