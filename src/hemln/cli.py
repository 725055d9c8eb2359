"""Command-line interface.

Subcommands: detect, kcommunity, cbg, rank, ingest-imdb. Exit codes:
0 success, 1 usage error, 2 data error (details on stderr). Each command
takes only the options it reads, and each setting comes from its flag
alone. kcommunity runs each --spec given, in order, over one detection.

kcommunity and cbg detect their layers in forked processes, one per CPU
the process may use, the parent included, largest layer first. The parent
detects any layer a child did not send back and keeps layer order, so
outputs and errors are a serial run's. One CPU, no os.fork or a caller
running other threads (those started in C too, where /proc lists them):
no fork.
"""
from __future__ import annotations

import argparse
import gc
import marshal
import os
import sys
import threading
from collections import Counter
from contextlib import suppress
from pathlib import Path
from typing import Dict, List, Optional

from . import engine, fileio
from .cbg import METRICS, build_cbg, cbg_to_tsv, crossing_pairs
from .community import (Membership, check_hub_quantile, detect_communities,
                        summarize)
from .engine import detect_k_community
from .errors import HemlnError
from .kspec import Composition, KSpec, parse_spec, validate_spec
from .model import MLN, LayerGraph

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

    # a parent parser per set of shared options, listed by the commands that read it
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--mln", required=True)
    network.add_argument("--metric", choices=METRICS, default="e")
    network.add_argument("--memberships",
                         help="directory of membership_<layer>.tsv files to use "
                              "instead of running detection")
    network.add_argument("--hub-quantile", type=float, default=0.8)

    p = sub.add_parser("detect", parents=[seed],
                       help="community detection for one layer file")
    p.set_defaults(run=_cmd_detect)
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("kcommunity", parents=[seed, network],
                       help="run k-community specifications over an MLN directory")
    p.set_defaults(run=_cmd_kcommunity)
    p.add_argument("--spec", action="append", required=True,
                   help="specification string; repeat it to run several")
    p.add_argument("--out", required=True)

    p = sub.add_parser("cbg", parents=[seed, network],
                       help="export the community bipartite graph of a layer pair")
    p.set_defaults(run=_cmd_cbg)
    p.add_argument("--pair", required=True, metavar="L1,L2")

    p = sub.add_parser("rank",
                       help="rank result tuples from a JSONL result file")
    p.set_defaults(run=_cmd_rank)
    p.add_argument("--result", required=True)
    p.add_argument("--key", required=True, choices=engine.RANK_KEYS)
    p.add_argument("--mln", help="with --memberships, for size/density keys only")
    p.add_argument("--memberships")

    p = sub.add_parser("ingest-imdb",
                       help="build an MLN directory from IMDb-style TSVs")
    p.set_defaults(run=_cmd_ingest_imdb)
    p.add_argument("--movies", required=True)
    p.add_argument("--people", required=True)
    p.add_argument("--acts", required=True)
    p.add_argument("--directs", required=True)
    p.add_argument("--genre-overlap-threshold", type=float, default=0.5)
    p.add_argument("--overlap-mode", choices=("min", "jaccard"), default="min")
    p.add_argument("--out", required=True)
    return parser


def _memberships_for(mln: MLN, layers, seed: int,
                     memberships_dir: Optional[str]):
    if memberships_dir:
        return {lid: fileio.load_membership_tsv(
                    mln.layer(lid), Path(memberships_dir) / f"membership_{lid}.tsv")
                for lid in layers}
    return dict(zip(layers, _detect_layers([mln.layer(lid) for lid in layers], seed)))


def _detect_layers(graphs: List[LayerGraph], seed: int) -> List[Membership]:
    """detect_communities on each graph, in parallel as the module says."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    try:  # /proc counts threads started in C too, such as a BLAS pool
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    forks = hasattr(os, "fork") and threads == 1
    workers = min(len(graphs), cpus if forks else 1) or 1
    order = sorted(range(len(graphs)), key=lambda i: -sum(map(len, graphs[i].nbrs)))
    own, *shares = [order[w::workers] for w in range(workers)]
    done: Dict[int, Membership] = {}
    children = []  # (pid, read end of its pipe, its share)
    try:
        for share in shares:
            pipe = ()
            try:
                pipe = r, w = os.pipe()
                pid = os.fork()
            except OSError:  # no descriptor or process to spare
                for fd in pipe:
                    os.close(fd)
                continue
            if pid == 0:  # the child sends its assignments and never returns
                try:
                    with open(w, "wb") as out:
                        out.write(marshal.dumps([detect_communities(graphs[i], seed)
                                                 .assignment for i in share]))
                    os._exit(0)
                finally:
                    os._exit(1)  # runs no atexit and flushes no parent stdio
            os.close(w)
            children.append((pid, r, share))
        for i in own:
            with suppress(HemlnError):  # raised below, in layer order, as serially
                done[i] = detect_communities(graphs[i], seed)
    finally:
        for pid, r, share in children:
            with open(r, "rb") as into:
                data = into.read()
            if os.waitpid(pid, 0)[1] == 0 and data:
                done.update((i, Membership(graphs[i].id, a))
                            for i, a in zip(share, marshal.loads(data)))
    return [done[i] if i in done else detect_communities(g, seed)  # not sent back
            for i, g in enumerate(graphs)]


def _summaries(mln: MLN, memberships, hub_quantile: float):
    return {lid: summarize(mln.layer(lid), m, hub_quantile)
            for lid, m in memberships.items()}


def _cmd_detect(args) -> int:
    g = fileio.load_layer(args.layer)
    m = detect_communities(g, args.seed)
    fileio.save_membership_tsv(m, args.out)
    return EXIT_OK


def _cmd_kcommunity(args) -> int:
    check_hub_quantile(args.hub_quantile)  # before any input is read
    mln = fileio.load_mln(args.mln)
    specs = [validate_spec(parse_spec(t), mln) for t in args.spec]
    layers = sorted({l for s in specs for l in s.layers})
    memberships = _memberships_for(mln, layers, args.seed, args.memberships)
    summaries = _summaries(mln, memberships, args.hub_quantile)
    out = Path(args.out)  # created only once every input has been checked
    out.mkdir(parents=True, exist_ok=True)
    for lid in layers:
        fileio.save_membership_tsv(memberships[lid], out / f"membership_{lid}.tsv")

    for i, spec in enumerate(specs):
        result = detect_k_community(mln, memberships, summaries, spec,
                                    args.metric)
        tag = "" if len(specs) == 1 else f"_{i}"
        for name, text in ((f"result{tag}.txt", engine.format_tuples(result)),
                           (f"result{tag}.jsonl", engine.to_jsonl(result)),
                           (f"diagnostics{tag}.tsv", engine.diagnostics_tsv(result))):
            (out / name).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_cbg(args) -> int:
    check_hub_quantile(args.hub_quantile)  # before any input is read
    mln = fileio.load_mln(args.mln)
    try:
        left, right = args.pair.split(",")
    except ValueError:
        raise HemlnError(f"--pair expects 'L1,L2', got {args.pair!r}") from None
    validate_spec(KSpec(left, (Composition(left, right),)), mln)  # before detection
    memberships = _memberships_for(mln, (left, right), args.seed, args.memberships)
    summaries = _summaries(mln, memberships, args.hub_quantile)
    buckets = crossing_pairs(mln, left, right, memberships[left], memberships[right])
    cbg = build_cbg(left, right, buckets,
                    sorted(summaries[left]), sorted(summaries[right]),
                    summaries[left], summaries[right], args.metric)
    sys.stdout.write(cbg_to_tsv(cbg))
    return EXIT_OK


def _cmd_rank(args) -> int:
    tuples = engine.from_jsonl(fileio._read_text(args.result))
    values: Dict[str, Dict[int, float]] = {}
    if args.key == "sum_raw_pairs":
        if args.mln is not None or args.memberships is not None:
            raise HemlnError("key sum_raw_pairs takes neither --mln nor --memberships")
    else:
        if not (args.mln and args.memberships):
            raise HemlnError(f"key {args.key} needs --mln and --memberships, the "
                             "kcommunity --out directory with membership_<layer>.tsv")
        mln = fileio.load_mln(args.mln)  # edges too, so every input check runs
        layers = sorted({lid for t in tuples for lid in t.layers})
        memberships = _memberships_for(mln, layers, 0, args.memberships)  # loaded
        if args.key == "min_density":  # density reads no hubs
            values = {lid: {c.index: s.density
                            for c, s in summarize(mln.layer(lid), m).items()}
                      for lid, m in memberships.items()}
        else:  # size keys: node counts straight from the memberships
            values = {lid: Counter(m.assignment.values())
                      for lid, m in memberships.items()}
    for t in engine.rank(tuples, values, args.key):
        sys.stdout.write(f"< {engine.format_slots(t)} >\n")
    return EXIT_OK


def _cmd_ingest_imdb(args) -> int:
    from . import imdb  # only this command reads csv
    records = imdb.load_imdb_tsvs(args.movies, args.people, args.acts, args.directs)
    mln, ids = imdb.ingest_imdb(records, args.genre_overlap_threshold,
                                args.overlap_mode)
    out = Path(args.out)
    fileio.save_mln(mln, out)
    id_lines = [f"{key}\t{nid}" for key, nid in sorted(ids.items())]
    (out / "node_ids.tsv").write_text("\n".join(id_lines) + "\n", encoding="utf-8")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Commands build only acyclic data (int tuples, frozensets, dicts, named
    # tuples) that refcounting frees; cyclic GC passes would only rescan it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except (HemlnError, OSError) as exc:  # OSError: unreadable or unwritable path
        print(f"hemln: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
