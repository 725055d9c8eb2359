"""Correctness checks on a job's output files that hold for every seed.

Golden hashes pin the exact bytes for a few seeds; these checks read the
files a job wrote and test what must be true of any correct run, so a
seed without a golden hash is still checked.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Set, Tuple

from workloads import Inputs


def _membership(path: Path) -> Dict[int, int]:
    rows = (line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#"))
    return {int(n): int(c) for n, c in rows}


def _links(mln_dir: Path) -> Dict[Tuple[str, str], Set[Tuple[int, int]]]:
    links: Dict[Tuple[str, str], Set[Tuple[int, int]]] = {}
    for path in sorted(mln_dir.glob("inter_*.tsv")):
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        _, l1, l2 = header.split("\t")
        pairs = {tuple(map(int, row.split("\t"))) for row in rows}
        links[(l1, l2)] = pairs
        links[(l2, l1)] = {(b, a) for a, b in pairs}
    return links


def _partition(m: Dict[int, int]) -> Set[frozenset]:
    groups: Dict[int, Set[int]] = {}
    for n, c in m.items():
        groups.setdefault(c, set()).add(n)
    return {frozenset(g) for g in groups.values()}


def render(record: dict) -> str:
    """A result record as ``rank`` prints it."""
    return "< " + ", ".join(f"c_{s['layer']}^{s['community']}" if s["community"] else "0"
                            for s in record["slots"]) + " >"


def check_outputs(workload: str, inputs: Inputs, setup_dir: Path, out: Path) -> List[str]:
    """Problems found in one job's outputs; empty when they are correct."""
    problems: List[str] = []
    records = [json.loads(line) for line in
               (out / "result.jsonl").read_text(encoding="utf-8").splitlines() if line]
    if not records:
        problems.append("result.jsonl holds no tuples")
    if len((out / "result.txt").read_text(encoding="utf-8").splitlines()) != len(records):
        problems.append("result.txt and result.jsonl disagree on the tuple count")
    layers = [s["layer"] for s in records[0]["slots"]] if records else []
    members = {lid: _membership(out / f"membership_{lid}.tsv") for lid in layers}
    links = _links(setup_dir / "mln")

    for pos, lid in enumerate(layers):
        used = [r["slots"][pos]["community"] for r in records]
        used = [c for c in used if c]
        if len(used) != len(set(used)):
            problems.append(f"a community of {lid} sits in two tuples")
    buckets: Dict[Tuple[str, str], Dict[Tuple[int, int], Set[Tuple[int, int]]]] = {}
    for r in records:
        slot = {s["layer"]: s["community"] for s in r["slots"]}
        for x in r["x"]:
            if x is None:
                continue
            left, right = x["step"]
            if (left, right) not in buckets:
                bucket = buckets[(left, right)] = {}
                for a, b in links[(left, right)]:
                    key = (members[left][a], members[right][b])
                    bucket.setdefault(key, set()).add((a, b))
            crossing = buckets[(left, right)].get((slot[left], slot[right]), set())
            if {tuple(p) for p in x["pairs"]} != crossing:
                problems.append(f"an x slot of step {left},{right} is not the set of "
                                "links between the tuple's communities")
        if r["total"] != all(x is not None for x in r["x"]):
            problems.append("a tuple's total flag disagrees with its x slots")

    if workload == "detect-planted":
        for lid, m in members.items():
            if any(len({inputs.groups[n] for n in g}) != 1 for g in _partition(m)):
                problems.append(f"a community of {lid} spans two planted groups")
    elif workload == "match-dense":
        for planted in inputs.memberships:
            if _partition(members[planted.layer]) != _partition(planted.assignment):
                problems.append(f"memberships of {planted.layer} differ from the input")
    else:
        ranked = (out / "rank.txt").read_text(encoding="utf-8").splitlines()
        if sorted(ranked) != sorted(render(r) for r in records):
            problems.append("rank output is not a permutation of the result tuples")
        complete = ["0" not in line[2:-2].split(", ") for line in ranked]
        if complete != sorted(complete, reverse=True):
            problems.append("rank puts a partial tuple above a complete one")
    return sorted(set(problems))
