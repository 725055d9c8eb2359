"""Serial k-community composition engine.

Runs the composition plan step by step: buckets the step's inter-layer
links by the community pair they cross, offers meta nodes, builds the
community bipartite graph, matches communities one-to-one by maximal flow,
and advances each result tuple by one rule, ``_advance``. Each tuple pairs
one community id per visited layer (0 = none) with one expanded edge set
per composition step (None = empty placeholder), which is enough to
reconstruct the matched sub-network exactly. A step works on community
indices: it reads the buckets and the matcher's rows, makes a frozenset only
for the buckets its tuples keep, and no ``MetaEdge`` at all.
"""
from __future__ import annotations

import json
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .cbg import build_cbg, crossing_pairs
from .community import CommunityId, CommunitySummary, Membership
from .errors import InvariantViolation, ParseError, UnknownCommunity, UnknownKey
from .kspec import CASE_CYCLE, CASE_NEW_LAYER, Composition, KSpec, validate_spec
from .matching import max_flow_match
from .model import MLN

RANK_KEYS = ("min_size", "sum_size", "min_density", "sum_raw_pairs")


class KTuple(NamedTuple):
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


class StepDiagnostics(NamedTuple):
    u_left_size: int
    u_right_size: int
    cbg_edge_count: int
    mp_size: int


class KCommunityResult(NamedTuple):
    spec: KSpec  # its layers give the community slots, its steps the x slots
    tuples: Tuple[KTuple, ...]
    diagnostics: Tuple[StepDiagnostics, ...]  # [i] measures spec.steps[i]


def select_u(step: Composition, case: str, tuples: Optional[List[KTuple]],
             buckets: Dict[Tuple[int, int], list]
             ) -> Tuple[List[CommunityId], List[CommunityId]]:
    """Choose the meta-node sets for a composition step from its buckets, as
    ``crossing_pairs`` returns them: keyed by (left index, right index).

    ``tuples`` is None on the base step, where each layer offers every
    community with a crossing link. Otherwise a processed layer offers
    exactly the non-zero community ids occupying its slot across the
    current tuples, and a new layer offers every community with at least
    one crossing link to the left offer.
    """
    if tuples is None:
        u_left = {cl for cl, _ in buckets}
        u_right = {cr for _, cr in buckets}
    else:
        u_left = {t.slot(step.left) for t in tuples} - {0}
        u_right = ({t.slot(step.right) for t in tuples} - {0} if case == CASE_CYCLE
                   else {cr for cl, cr in buckets if cl in u_left})
    return ([CommunityId(step.left, c) for c in sorted(u_left)],
            [CommunityId(step.right, c) for c in sorted(u_right)])


def detect_k_community(mln: MLN,
                       memberships: Mapping[str, Membership],
                       summaries: Mapping[str, Mapping[CommunityId, CommunitySummary]],
                       spec: KSpec,
                       default_metric: str = "e") -> KCommunityResult:
    """Run the composition plan, one step alive at a time; return the result tuples."""
    for lid in spec.layers:
        if lid not in memberships or lid not in summaries:
            raise InvariantViolation(f"layer {lid} has no membership or summaries")
    validate_spec(spec, mln)
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
        matched = {cl.index: cr.index for cl, cr in mp.pairs}
        if tuples is None:
            tuples = [KTuple((step.left, step.right), pair, (frozenset(buckets[pair]),))
                      for pair in matched.items()]
        else:
            tuples = [_advance(t, step, case, matched, buckets) for t in tuples]

        diagnostics.append(StepDiagnostics(len(u_left), len(u_right),
                                           sum(map(len, cbg.table.rows)), len(mp.pairs)))
        del buckets, cbg, mp, matched  # freed before the next step builds its own

    tuples = sorted(tuples or (), key=lambda t: t.communities)  # no two share slots
    return KCommunityResult(spec, tuple(tuples), tuple(diagnostics))


def _advance(t: KTuple, step: Composition, case: str, matched: Dict[int, int],
             by_index: Dict[Tuple[int, int], list]) -> KTuple:
    """Append the step's x slot, and under case i the new layer's slot. The x
    slot is None unless the tuple's left community is matched, under case ii
    to the tuple's own right community (a consistent match)."""
    cl = t.slot(step.left)
    cr = matched.get(cl, 0)  # no community has index 0
    if case == CASE_NEW_LAYER:
        t = KTuple(t.layers + (step.right,), t.communities + (cr,), t.x_slots)
    elif cr != t.slot(step.right):
        cr = 0
    return t._replace(x_slots=t.x_slots + (frozenset(by_index[(cl, cr)]) if cr else None,))


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
    break on the lexicographic slot sequence, then keep their given order.
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
                                         t.communities))


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
    is derived again, not read. A record's slots name two or more distinct
    layers, and each step names two of them."""
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
            steps = [x["step"] for x in rec["x"] if x is not None]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"malformed result record: {exc}", lineno) from None
        if not (all(type(l) is str for l in layers)  # exact types: true is no 1
                and all(type(c) is int and c >= 0 for c in communities)
                and all(list(map(type, p)) == [int, int]
                        for x in x_slots if x for p in x)
                # distinct layers; each added layer took one step, a cycle more
                and 2 <= len(set(layers)) == len(layers) <= len(x_slots) + 1
                and all(type(s) is list and len(s) == 2 and s[0] != s[1]
                        and s[0] in layers and s[1] in layers for s in steps)):
            raise ParseError("malformed result record: bad slot, pair or step",
                             lineno)
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
