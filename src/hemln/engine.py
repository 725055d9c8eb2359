"""Serial k-community composition engine.

Runs the composition plan step by step: buckets the step's inter-layer
links by the community pair they cross, offers meta nodes, builds the
community bipartite graph, matches communities one-to-one by maximal flow,
and extends (new layer) or updates (cycle step) the result tuples according
to the consistent / no / inconsistent match outcomes. Each tuple pairs one
community id per visited layer (0 = none) with one expanded edge set per
composition step (None = empty placeholder), which is enough to
reconstruct the matched sub-network exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .cbg import Buckets, build_cbg, crossing_pairs
from .community import CommunityId, CommunitySummary, Membership
from .errors import ParseError, UnknownCommunity, UnknownKey
from .kspec import CASE_CYCLE, CASE_NEW_LAYER, Composition, KSpec
from .matching import max_flow_match
from .model import MLN

RANK_KEYS = ("min_size", "sum_size", "min_density", "sum_raw_pairs")


@dataclass(frozen=True)
class KTuple:
    """One element of a k-community.

    ``communities[i]`` is the community index in ``layers[i]`` (0 = none);
    ``x_slots[j]`` holds the inter-layer node pairs realized by step j, or
    None when that step contributed nothing for this tuple.
    """

    layers: Tuple[str, ...]
    communities: Tuple[int, ...]
    x_slots: Tuple[Optional[frozenset], ...]

    @property
    def total(self) -> bool:
        return all(x is not None for x in self.x_slots)

    def slot(self, layer: str) -> int:
        return self.communities[self.layers.index(layer)]

    def sort_key(self):
        return (self.communities,
                tuple(tuple(sorted(x)) if x is not None else () for x in self.x_slots))


@dataclass(frozen=True)
class StepDiagnostics:
    u_left_size: int
    u_right_size: int
    cbg_edge_count: int
    mp_size: int


@dataclass(frozen=True)
class KCommunityResult:
    spec: KSpec  # its layers give the community slots, its steps the x slots
    tuples: Tuple[KTuple, ...]
    diagnostics: Tuple[StepDiagnostics, ...]  # [i] measures spec.steps[i]


def select_u(step: Composition, case: str, tuples: Optional[List[KTuple]],
             buckets: Buckets) -> Tuple[List[CommunityId], List[CommunityId]]:
    """Choose the meta-node sets for a composition step.

    ``tuples`` is None on the base step, where each layer offers every
    community with a crossing link. Otherwise a processed layer offers
    exactly the non-zero community ids occupying its slot across the
    current tuples, and a new layer offers every community with at least
    one crossing link to the left offer.
    """
    if tuples is None:
        return sorted({cl for cl, _ in buckets}), sorted({cr for _, cr in buckets})

    def processed(layer: str) -> List[CommunityId]:
        ids = {t.slot(layer) for t in tuples} - {0}
        return [CommunityId(layer, i) for i in sorted(ids)]

    u_left = processed(step.left)
    if case == CASE_CYCLE:
        return u_left, processed(step.right)
    left_set = set(u_left)
    return u_left, sorted({cr for cl, cr in buckets if cl in left_set})


def detect_k_community(mln: MLN,
                       memberships: Mapping[str, Membership],
                       summaries: Mapping[str, Mapping[CommunityId, CommunitySummary]],
                       spec: KSpec,
                       default_metric: str = "e") -> KCommunityResult:
    """Execute the composition plan and return the set of result tuples."""
    tuples: Optional[List[KTuple]] = None  # None until the base step has run
    diagnostics: List[StepDiagnostics] = []

    for step, case in zip(spec.steps, spec.cases):
        buckets = crossing_pairs(mln, step.left, step.right,
                                 memberships[step.left], memberships[step.right])
        u_left, u_right = select_u(step, case, tuples, buckets)
        cbg = build_cbg(step.left, step.right, buckets, u_left, u_right,
                        summaries[step.left], summaries[step.right],
                        step.metric or default_metric)
        mp = max_flow_match(cbg)
        matched_right = dict(mp.pairs)

        if tuples is None:
            tuples = [KTuple((step.left, step.right), (cl.index, cr.index),
                             (buckets[(cl, cr)],))
                      for cl, cr in mp.pairs]
        elif case == CASE_NEW_LAYER:
            tuples = [_extend(t, step, matched_right, buckets) for t in tuples]
        else:
            tuples = [_update(t, step, matched_right, buckets) for t in tuples]

        diagnostics.append(StepDiagnostics(len(u_left), len(u_right),
                                           len(cbg.edges), len(mp.pairs)))

    tuples = sorted(tuples or (), key=KTuple.sort_key)
    return KCommunityResult(spec, tuple(tuples), tuple(diagnostics))


def _extend(t: KTuple, step: Composition,
            matched: Dict[CommunityId, CommunityId],
            buckets: Buckets) -> KTuple:
    """Case i: append a community slot for the new right layer plus an x slot."""
    left_idx = t.slot(step.left)
    layers = t.layers + (step.right,)
    if left_idx != 0:
        cl = CommunityId(step.left, left_idx)
        cr = matched.get(cl)
        if cr is not None:
            return KTuple(layers, t.communities + (cr.index,),
                          t.x_slots + (buckets[(cl, cr)],))
    return KTuple(layers, t.communities + (0,), t.x_slots + (None,))


def _update(t: KTuple, step: Composition,
            matched: Dict[CommunityId, CommunityId],
            buckets: Buckets) -> KTuple:
    """Case ii: both layers processed; append an x slot only."""
    left_idx = t.slot(step.left)
    right_idx = t.slot(step.right)
    if left_idx != 0 and right_idx != 0:
        cl = CommunityId(step.left, left_idx)
        cr = CommunityId(step.right, right_idx)
        if matched.get(cl) == cr:
            return KTuple(t.layers, t.communities, t.x_slots + (buckets[(cl, cr)],))
    return KTuple(t.layers, t.communities, t.x_slots + (None,))


def classify(result: KCommunityResult):
    """Split tuples into (total, partial) by the empty-slot criterion."""
    total = tuple(t for t in result.tuples if t.total)
    partial = tuple(t for t in result.tuples if not t.total)
    return total, partial


def rank(tuples: Sequence[KTuple],
         values: Mapping[str, Mapping[int, float]],
         key: str) -> List[KTuple]:
    """Stable descending order by the chosen key.

    ``values[layer][index]`` is a community's node count under the size keys
    and its density under min_density; sum_raw_pairs reads none. Zero slots
    contribute 0 to size keys and are excluded from min_density; under min_*
    keys any tuple with a zero slot ranks below all complete tuples. Ties
    break on the lexicographic slot sequence.
    """
    if key not in RANK_KEYS:
        raise UnknownKey(f"rank key must be one of {RANK_KEYS}, got {key!r}")

    def value(t: KTuple):
        if key == "sum_raw_pairs":
            return (0, sum(len(x) for x in t.x_slots if x is not None))
        found = []
        for layer, idx in zip(t.layers, t.communities):
            if idx == 0:
                continue
            if idx not in values.get(layer, {}):
                raise UnknownCommunity(f"{CommunityId(layer, idx)} is not a "
                                       f"community of layer {layer}")
            found.append(values[layer][idx])
        if key == "sum_size":
            return (0, sum(found))
        has_zero = len(found) < len(t.communities)
        return (0 if has_zero else 1, min(found, default=0))

    return sorted(tuples, key=lambda t: (tuple(-v for v in value(t)),
                                         t.sort_key()))


# ---------------------------------------------------------------------------
# serialization


def format_slots(t: KTuple) -> str:
    """A tuple's community slots: ``c_A^2, 0`` with 0 for an empty slot."""
    return ", ".join(str(CommunityId(l, c)) if c != 0 else "0"
                     for l, c in zip(t.layers, t.communities))


def format_tuples(result: KCommunityResult) -> str:
    """Human-readable tuples: ``< c_A^2, c_D^1 ; x_{A,D} >`` with 0 and phi
    for empty slots."""
    lines = []
    for t in result.tuples:
        xs = ", ".join(
            f"x_{{{s.left},{s.right}}}" if x is not None else "phi"
            for s, x in zip(result.spec.steps, t.x_slots))
        lines.append(f"< {format_slots(t)} ; {xs} >")
    return "\n".join(lines) + ("\n" if lines else "")


def to_jsonl(result: KCommunityResult) -> str:
    lines = []
    for t in result.tuples:
        record = {
            "slots": [{"layer": l, "community": c}
                      for l, c in zip(t.layers, t.communities)],
            "x": [{"step": [s.left, s.right],
                   "pairs": [list(p) for p in sorted(x)]} if x is not None else None
                  for s, x in zip(result.spec.steps, t.x_slots)],
            "total": t.total,
        }
        lines.append(json.dumps(record, separators=(",", ":"), sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def from_jsonl(text: str) -> List[KTuple]:
    """Tuples from ``to_jsonl`` text; blank lines are skipped and ``total``
    is derived again, not read."""
    tuples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            layers = tuple(s["layer"] for s in rec["slots"])
            communities = tuple(s["community"] for s in rec["slots"])
            x_slots = tuple(
                frozenset(map(tuple, x["pairs"])) if x is not None else None
                for x in rec["x"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed result record: {exc}", lineno) from None
        if not (all(type(l) is str for l in layers)  # exact types: true is no 1
                and all(type(c) is int and c >= 0 for c in communities)
                and all(list(map(type, p)) == [int, int]
                        for x in x_slots if x for p in x)):
            raise ParseError("malformed result record: bad slot or pair", lineno)
        tuples.append(KTuple(layers, communities, x_slots))
    return tuples


def diagnostics_tsv(result: KCommunityResult) -> str:
    """Per-step diagnostics. Wall times are deliberately left out so that
    identical runs produce byte-identical files."""
    lines = ["step\tleft\tright\tcase\tu_left\tu_right\tcbg_edges\tmp_size"]
    spec = result.spec
    for i, (step, case, d) in enumerate(zip(spec.steps, spec.cases,
                                            result.diagnostics)):
        lines.append(f"{i}\t{step.left}\t{step.right}\t{case}\t"
                     f"{d.u_left_size}\t{d.u_right_size}\t"
                     f"{d.cbg_edge_count}\t{d.mp_size}")
    return "\n".join(lines) + "\n"
