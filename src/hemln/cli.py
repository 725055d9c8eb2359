"""Command-line interface.

Subcommands: detect, kcommunity, cbg, rank, ingest-imdb. Exit codes:
0 success, 1 usage error, 2 data error (details on stderr). Each command
takes only the options it reads. Where --seed exists, the MLN_SEED
environment variable overrides it; --config points to a key=value file
supplying defaults for the command's metric, seed, hub_quantile and spec.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from . import engine, fileio, imdb
from .cbg import METRICS, build_cbg, cbg_to_tsv, crossing_pairs
from .community import detect_communities, summarize
from .engine import detect_k_community
from .errors import EmptySpec, HemlnError, InvariantViolation
from .kspec import parse_spec, validate_spec
from .model import MLN

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve 2 for data
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hemln", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # one parent parser per shared option, listed by the commands that read it
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value file with flag defaults")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    quantile = argparse.ArgumentParser(add_help=False)
    quantile.add_argument("--hub-quantile", type=float, default=None)

    p = sub.add_parser("detect", parents=[config, seed],
                       help="community detection for one layer file")
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("kcommunity", parents=[config, seed, quantile],
                       help="run a k-community specification over an MLN directory")
    p.add_argument("--mln", required=True)
    p.add_argument("--spec", help="specification string")
    p.add_argument("--spec-file", help="file with one specification per line")
    p.add_argument("--metric", choices=METRICS, default=None)
    p.add_argument("--memberships",
                   help="directory of membership_<layer>.tsv files to use "
                        "instead of running detection")
    p.add_argument("--out", required=True)

    p = sub.add_parser("cbg", parents=[config, seed, quantile],
                       help="export the community bipartite graph of a layer pair")
    p.add_argument("--mln", required=True)
    p.add_argument("--pair", required=True, metavar="L1,L2")
    p.add_argument("--metric", choices=METRICS, default=None)
    p.add_argument("--memberships")

    p = sub.add_parser("rank",
                       help="rank result tuples from a JSONL result file")
    p.add_argument("--result", required=True)
    p.add_argument("--key", required=True, choices=engine.RANK_KEYS)
    p.add_argument("--mln", help="with --memberships, needed for size/density keys")
    p.add_argument("--memberships")

    p = sub.add_parser("ingest-imdb",
                       help="build an MLN directory from IMDb-style TSVs")
    p.add_argument("--movies", required=True)
    p.add_argument("--people", required=True)
    p.add_argument("--acts", required=True)
    p.add_argument("--directs", required=True)
    p.add_argument("--genre-overlap-threshold", type=float, default=0.5)
    p.add_argument("--overlap-mode", choices=("min", "jaccard"), default="min")
    p.add_argument("--out", required=True)
    return parser


class RunConfig(NamedTuple):
    """Run-level knobs from CLI flags, a --config file and MLN_SEED."""

    default_metric: str
    seed: int
    hub_quantile: float
    spec_text: str


def _number(kind, name: str, text: str):
    try:
        return kind(text)
    except ValueError:
        raise InvariantViolation(
            f"{name} must be {kind.__name__}, got {text!r}") from None


def _settings(args) -> RunConfig:
    defaults: Dict[str, str] = {}
    if getattr(args, "config", None):
        defaults = fileio.load_config(args.config)
    seed, quantile = 0, 0.8
    if hasattr(args, "seed"):  # only commands with --seed read MLN_SEED
        seed = args.seed
        if seed is None:
            seed = _number(int, "seed", defaults.get("seed", "0"))
        if "MLN_SEED" in os.environ:
            seed = _number(int, "MLN_SEED", os.environ["MLN_SEED"])
    if hasattr(args, "hub_quantile"):
        quantile = args.hub_quantile
        if quantile is None:
            quantile = _number(float, "hub_quantile",
                               defaults.get("hub_quantile", "0.8"))
    metric = getattr(args, "metric", None) or defaults.get("metric", "e")
    spec_text = getattr(args, "spec", None) or defaults.get("spec", "")
    if metric not in METRICS:
        raise InvariantViolation(f"bad metric {metric!r}")
    if not (0.0 < quantile <= 1.0):
        raise InvariantViolation(f"bad hub_quantile {quantile}")
    return RunConfig(metric, seed, quantile, spec_text)


def _memberships_for(mln: MLN, layers, seed: int,
                     memberships_dir: Optional[str]):
    memberships = {}
    for lid in layers:
        g = mln.layer(lid)
        if memberships_dir:
            path = Path(memberships_dir) / f"membership_{lid}.tsv"
            memberships[lid] = fileio.load_membership_tsv(g, path)
        else:
            memberships[lid] = detect_communities(g, seed)
    return memberships


def _summaries(mln: MLN, memberships, hub_quantile: float):
    return {lid: summarize(mln.layer(lid), m, hub_quantile)
            for lid, m in memberships.items()}


def _cmd_detect(args) -> int:
    cfg = _settings(args)
    g = fileio.load_layer(args.layer)
    m = detect_communities(g, cfg.seed)
    fileio.save_membership_tsv(m, args.out)
    return EXIT_OK


def _specs_from_args(args, cfg: RunConfig) -> List[str]:
    if args.spec_file:
        specs = [line for _, line in fileio._lines(args.spec_file, fileio.COMMENT)]
        if not specs:
            raise EmptySpec(f"spec file {args.spec_file} has no specification")
        return specs
    if cfg.spec_text:
        return [cfg.spec_text]
    raise HemlnError("kcommunity needs --spec or --spec-file")


def _cmd_kcommunity(args) -> int:
    cfg = _settings(args)
    mln = fileio.load_mln(args.mln)
    specs = [validate_spec(parse_spec(t), mln) for t in _specs_from_args(args, cfg)]
    layers = sorted({l for s in specs for l in s.layers})
    memberships = _memberships_for(mln, layers, cfg.seed, args.memberships)
    summaries = _summaries(mln, memberships, cfg.hub_quantile)
    out = Path(args.out)  # created only once every input has been checked
    out.mkdir(parents=True, exist_ok=True)
    for lid in layers:
        fileio.save_membership_tsv(memberships[lid], out / f"membership_{lid}.tsv")

    for i, spec in enumerate(specs):
        result = detect_k_community(mln, memberships, summaries, spec,
                                    cfg.default_metric)
        stem = "result" if len(specs) == 1 else f"result_{i}"
        (out / f"{stem}.txt").write_text(engine.format_tuples(result),
                                         encoding="utf-8")
        (out / f"{stem}.jsonl").write_text(engine.to_jsonl(result),
                                           encoding="utf-8")
        diag = "diagnostics.tsv" if len(specs) == 1 else f"diagnostics_{i}.tsv"
        (out / diag).write_text(engine.diagnostics_tsv(result), encoding="utf-8")
    return EXIT_OK


def _cmd_cbg(args) -> int:
    cfg = _settings(args)
    mln = fileio.load_mln(args.mln)
    try:
        left, right = args.pair.split(",")
    except ValueError:
        raise HemlnError(f"--pair expects 'L1,L2', got {args.pair!r}") from None
    memberships = _memberships_for(mln, (left, right), cfg.seed, args.memberships)
    summaries = _summaries(mln, memberships, cfg.hub_quantile)
    buckets = crossing_pairs(mln, left, right, memberships[left], memberships[right])
    cbg = build_cbg(left, right, buckets,
                    sorted(summaries[left]), sorted(summaries[right]),
                    summaries[left], summaries[right], cfg.default_metric)
    sys.stdout.write(cbg_to_tsv(cbg))
    return EXIT_OK


def _cmd_rank(args) -> int:
    cfg = _settings(args)  # defaults only: rank keys read no seed and no hubs
    tuples = engine.from_jsonl(fileio._read_text(args.result))
    values: Dict[str, Dict[int, float]] = {}
    if args.key != "sum_raw_pairs":
        if not (args.mln and args.memberships):
            raise HemlnError(f"key {args.key} needs --mln and --memberships, the "
                             "kcommunity --out directory with membership_<layer>.tsv")
        mln = fileio.load_mln(args.mln)  # edges too, so every input check runs
        layers = sorted({lid for t in tuples for lid in t.layers})
        memberships = _memberships_for(mln, layers, cfg.seed, args.memberships)
        if args.key == "min_density":
            summaries = _summaries(mln, memberships, cfg.hub_quantile)
            values = {lid: {c.index: s.density for c, s in by_id.items()}
                      for lid, by_id in summaries.items()}
        else:  # size keys: node counts straight from the memberships
            values = {lid: Counter(m.assignment.values())
                      for lid, m in memberships.items()}
    for t in engine.rank(tuples, values, args.key):
        sys.stdout.write(f"< {engine.format_slots(t)} >\n")
    return EXIT_OK


def _cmd_ingest_imdb(args) -> int:
    records = imdb.load_imdb_tsvs(args.movies, args.people, args.acts, args.directs)
    mln, ids = imdb.ingest_imdb(records, args.genre_overlap_threshold,
                                args.overlap_mode)
    out = Path(args.out)
    fileio.save_mln(mln, out)
    id_lines = [f"{key}\t{nid}" for key, nid in sorted(ids.items())]
    (out / "node_ids.tsv").write_text("\n".join(id_lines) + "\n", encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "detect": _cmd_detect,
    "kcommunity": _cmd_kcommunity,
    "cbg": _cmd_cbg,
    "rank": _cmd_rank,
    "ingest-imdb": _cmd_ingest_imdb,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Commands build only acyclic data (int tuples, frozensets, dicts, named
    # tuples) that refcounting frees; cyclic GC passes would only rescan it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except (HemlnError, OSError) as exc:  # OSError: unreadable or unwritable path
        print(f"hemln: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
