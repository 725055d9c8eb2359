"""Spans and counts taken from outside the program.

``Tracer.installed`` replaces public functions of the ``hemln`` modules
with timing wrappers, at the names their callers look them up (for example
``hemln.engine.build_cbg``, which ``detect_k_community`` calls), and puts
the originals back on exit. Spans are kept in memory as
``[name, start, end, parent index]`` and written out by the caller.
"""
from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Counter = Callable[[tuple, object, Dict[str, float]], None]


def _add(counts: Dict[str, float], key: str, n: float) -> None:
    counts[key] = counts.get(key, 0) + n


def _count_detect(args, m, counts):
    _add(counts, "community.communities", len(set(m.assignment.values())))


def _count_spec(args, spec, counts):
    _add(counts, "kspec.steps", len(spec.steps))


def _count_result(args, result, counts):
    _add(counts, "engine.tuples", len(result.tuples))
    _add(counts, "engine.total", sum(1 for t in result.tuples if t.total))


def _count_cbg(args, cbg, counts):
    _add(counts, "cbg.meta_nodes", len(cbg.left_nodes) + len(cbg.right_nodes))
    _add(counts, "cbg.meta_edges", len(cbg.edges))
    _add(counts, "cbg.dropped", len(cbg.dropped))


def _count_match(args, mp, counts):
    _add(counts, "matching.pairs", len(mp.pairs))
    _add(counts, "matching.edges", len(args[0].edges))


def _count_load(args, mln, counts):
    _add(counts, "fileio.load_mln.bytes", sum(
        p.stat().st_size for pattern in ("layer_*.tsv", "inter_*.tsv")
        for p in Path(args[0]).glob(pattern)))


def _count_layer(args, g, counts):
    _add(counts, "model.nodes", len(g.nodes))
    _add(counts, "model.edges", len(g.edges))


def _count_links(args, x, counts):
    _add(counts, "model.links", len(x.links))


def hemln_targets() -> List[Tuple[object, str, str, Optional[Counter]]]:
    """(owner, attribute, span name, counter) for every wrapped function."""
    from hemln import cli, engine, fileio, imdb
    from hemln.model import MLN, InterLayerEdges, LayerGraph
    return [
        (cli, "detect_communities", "community.detect", _count_detect),
        (cli, "summarize", "community.summarize", None),
        (cli, "parse_spec", "kspec.parse", None),
        (cli, "validate_spec", "kspec.validate", _count_spec),
        (cli, "detect_k_community", "engine.compose", _count_result),
        (engine, "select_u", "engine.select_u", None),
        (engine, "build_cbg", "cbg.build", _count_cbg),
        (engine, "max_flow_match", "matching.match", _count_match),
        (engine, "format_tuples", "engine.serialize", None),
        (engine, "to_jsonl", "engine.serialize", None),
        (engine, "diagnostics_tsv", "engine.serialize", None),
        (engine, "rank", "engine.rank", None),
        (fileio, "load_mln", "fileio.load_mln", _count_load),
        (fileio, "load_membership_tsv", "fileio.load_membership_tsv", None),
        (fileio, "save_mln", "fileio.save", None),
        (fileio, "save_membership_tsv", "fileio.save", None),
        (imdb, "load_imdb_tsvs", "imdb.load_tsvs", None),
        (imdb, "ingest_imdb", "imdb.ingest", None),
        (LayerGraph, "build", "model.build", _count_layer),
        (InterLayerEdges, "build", "model.build", _count_links),
        (MLN, "add_layer", "model.build", None),
        (MLN, "add_interlayer", "model.build", None),
    ]


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str, counter: Optional[Counter]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(args, result, self.counts)
            return result
        return wrapper

    @contextmanager
    def installed(self, targets: Sequence[Tuple[object, str, str, Optional[Counter]]]
                  ) -> Iterator["Tracer"]:
        saved = []
        try:
            for owner, attr, name, counter in targets:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(raw.__func__, name, counter))
                    setattr(owner, attr, wrapped)
                else:
                    setattr(owner, attr, self.wrap(raw, name, counter))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)



# ---------------------------------------------------------------------------
# per-layer metrics


def _durations(spans: Sequence[list]) -> Tuple[Dict[str, float], Dict[str, float],
                                               Dict[str, float], float]:
    """Total and self time per span name, longest span per name, and the
    time covered by top-level spans."""
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    longest: Dict[str, float] = {}
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        d = end - start
        total[name] = total.get(name, 0.0) + d
        longest[name] = max(longest.get(name, 0.0), d)
        if parent is None:
            top += d
        else:
            child_time[parent] += d
    for (name, start, end, _), inner in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - inner
    return total, self_time, longest, top


def job_metrics(commands: Sequence[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced job. ``commands`` holds, per CLI
    command, its wall time and the spans and counts its child recorded."""
    wall = sum(c["wall_s"] for c in commands)
    spans: List[list] = []
    counts: Dict[str, float] = {}
    for c in commands:
        shift = len(spans)
        spans += [[n, s, e, None if p is None else p + shift]
                  for n, s, e, p in c["spans"]]
        for key, value in c["counts"].items():
            counts[key] = counts.get(key, 0) + value
    total, self_time, longest, top = _durations(spans)
    calls = sum(1 for s in spans if s[0] == "community.detect")
    t = total.get

    def n(key: str) -> float:
        return counts.get(key, 0)

    m = {
        "community.detect.s": t("community.detect", 0.0),
        "community.detect.calls": calls,
        "community.detect.max_layer_s": longest.get("community.detect", 0.0),
        "community.communities": n("community.communities"),
        "community.summarize.s": t("community.summarize", 0.0),
        "matching.match.s": t("matching.match", 0.0),
        "matching.match.max_s": longest.get("matching.match", 0.0),
        "matching.pairs": n("matching.pairs"),
        "matching.pairs_per_edge": _ratio(n("matching.pairs"), n("matching.edges")),
        "cbg.build.s": t("cbg.build", 0.0),
        "cbg.meta_nodes": n("cbg.meta_nodes"),
        "cbg.meta_edges": n("cbg.meta_edges"),
        "cbg.dropped": n("cbg.dropped"),
        "cbg.kept_frac": _ratio(n("cbg.meta_edges"),
                                n("cbg.meta_edges") + n("cbg.dropped")),
        "engine.compose.s": t("engine.compose", 0.0),
        "engine.select_u.s": t("engine.select_u", 0.0),
        "engine.self.s": self_time.get("engine.compose", 0.0),
        "engine.serialize.s": t("engine.serialize", 0.0),
        "engine.rank.s": t("engine.rank", 0.0),
        "engine.tuples": n("engine.tuples"),
        "engine.total_frac": _ratio(n("engine.total"), n("engine.tuples")),
        "fileio.load_mln.s": t("fileio.load_mln", 0.0),
        "fileio.load_mln.bytes": n("fileio.load_mln.bytes"),
        "fileio.load_membership_tsv.s": t("fileio.load_membership_tsv", 0.0),
        "fileio.job_save.s": t("fileio.save", 0.0),
        "model.build.s": t("model.build", 0.0),
        "model.nodes": n("model.nodes"),
        "model.edges": n("model.edges"),
        "model.links": n("model.links"),
        "kspec.steps": n("kspec.steps"),
        "cli.import.s": t("cli.import", 0.0),
        "cli.self.s": wall - top,
        "trace.coverage": _ratio(top, wall),
        "job.traced_s": wall,
    }
    self_time["cli.self"] = wall - top
    m["community.detect.share"] = _ratio(m["community.detect.s"], wall)
    m["matching.match.share"] = _ratio(m["matching.match.s"], wall)
    m["layer.max_share"] = _ratio(max(self_time.values()), wall)
    return m


def setup_metrics(spans: Sequence[list]) -> Dict[str, float]:
    total = _durations(spans)[0]
    return {"fileio.save.s": total.get("fileio.save", 0.0),
            "imdb.load_tsvs.s": total.get("imdb.load_tsvs", 0.0),
            "imdb.ingest.s": total.get("imdb.ingest", 0.0)}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def medians(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def purpose_holds(workload: str, m: Dict[str, float]) -> bool:
    """Each workload's dominant layer, as stated when the benchmark was
    defined. Later runs report this but do not fail on it: a faster layer
    is meant to shrink its own share."""
    if workload == "detect-planted":
        return m["community.detect.share"] >= 0.70
    if workload == "match-dense":
        return m["matching.match.share"] >= 0.70 and m["community.detect.calls"] == 0
    return m["layer.max_share"] <= 0.50
