"""Seeded workload generators, set-up steps and CLI jobs for the benchmark.

Each workload turns a workload seed into inputs, writes them where the job
reads them (the timed set-up), and names the ``hemln`` commands that make
up one job. The program only ever sees the generated files. Why each
workload exists is recorded in ``perfbench/README.md``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from hemln import fileio
from hemln.community import Membership
from hemln.model import MLN, InterLayerEdges, LayerGraph

# Full sizes. Tests pass smaller ones to get a smoke run in a second.
SIZES: Dict[str, Dict[str, int]] = {
    "detect-planted": {"groups": 20, "group_size": 200, "links": 500},
    "match-dense": {"groups": 250, "group_size": 10, "fanout": 20},
    "imdb-pipeline": {"movies": 750, "actors": 1500, "studios": 20,
                      "directors": 150, "cast": 5},
}
TINY_SIZES: Dict[str, Dict[str, int]] = {
    "detect-planted": {"groups": 4, "group_size": 20, "links": 40},
    "match-dense": {"groups": 20, "group_size": 10, "fanout": 4},
    "imdb-pipeline": {"movies": 60, "actors": 120, "studios": 4,
                      "directors": 12, "cast": 3},
}

PLANTED_SPEC = "L0 #(L0,L1) L1 #(L1,L2) L2"
DENSE_SPEC = "L0 #(L0,L1):e L1 #(L1,L2):d L2 #(L2,L0):h L0"
IMDB_SPEC = "M #(M,A) A #(A,D) D #(D,M) M"
LAYER_OFFSET = 100_000  # layer i holds node ids (i+1)*LAYER_OFFSET onwards


@dataclass
class Inputs:
    """Generated data for one workload seed, before anything is written."""

    mln: Optional[MLN] = None
    memberships: List[Membership] = field(default_factory=list)
    tsvs: Dict[str, str] = field(default_factory=dict)  # imdb file -> text
    groups: Dict[int, int] = field(default_factory=dict)  # node -> planted group


def _planted_layer(rng: random.Random, lid: str, offset: int, groups: int,
                   group_size: int, chords: int, inputs: Inputs) -> LayerGraph:
    """Disjoint groups, each a ring plus ``chords`` random internal edges."""
    edges = set()
    for g in range(groups):
        base = offset + g * group_size
        members = range(base, base + group_size)
        for n in members:
            edges.add((n, base + (n - base + 1) % group_size))
            inputs.groups[n] = offset + g
        for _ in range(chords):
            edges.add(tuple(rng.sample(members, 2)))
    return LayerGraph.build(lid, range(offset, offset + groups * group_size), edges)


def gen_detect_planted(rng: random.Random, groups: int, group_size: int,
                       links: int) -> Inputs:
    """Criterion-09 shape: 3 layers of planted groups, random links."""
    inputs = Inputs()
    mln = MLN()
    for i in range(3):
        mln.add_layer(_planted_layer(rng, f"L{i}", (i + 1) * LAYER_OFFSET,
                                     groups, group_size, 2 * group_size, inputs))
    for a, b in (("L0", "L1"), ("L1", "L2")):
        a0 = (int(a[1]) + 1) * LAYER_OFFSET
        b0 = (int(b[1]) + 1) * LAYER_OFFSET
        n = groups * group_size
        pairs = {(a0 + rng.randrange(n), b0 + rng.randrange(n))
                 for _ in range(links)}
        mln.add_interlayer(InterLayerEdges.build(a, b, pairs))
    inputs.mln = mln.freeze()
    return inputs


def gen_match_dense(rng: random.Random, groups: int, group_size: int,
                    fanout: int) -> Inputs:
    """3 layers of small planted groups passed as memberships; every left
    group links to ``fanout`` right groups with 1-3 links each."""
    inputs = Inputs()
    mln = MLN()
    for i in range(3):
        lid, offset = f"L{i}", (i + 1) * LAYER_OFFSET
        mln.add_layer(_planted_layer(rng, lid, offset, groups, group_size,
                                     group_size // 2, inputs))
        inputs.memberships.append(Membership(lid, {
            n: (n - offset) // group_size + 1
            for n in range(offset, offset + groups * group_size)}))
    for a, b in (("L0", "L1"), ("L1", "L2"), ("L2", "L0")):
        a0 = (int(a[1]) + 1) * LAYER_OFFSET
        b0 = (int(b[1]) + 1) * LAYER_OFFSET
        pairs = set()
        for g in range(groups):
            for h in rng.sample(range(groups), fanout):
                for _ in range(rng.randint(1, 3)):
                    pairs.add((a0 + g * group_size + rng.randrange(group_size),
                               b0 + h * group_size + rng.randrange(group_size)))
        mln.add_interlayer(InterLayerEdges.build(a, b, pairs))
    inputs.mln = mln.freeze()
    return inputs


GENRES = ("Action", "Adventure", "Animation", "Biography", "Comedy", "Crime",
          "Documentary", "Drama", "Family", "Fantasy", "History", "Horror",
          "Music", "Musical", "Mystery", "News", "Romance", "Sci-Fi", "Sport",
          "Thriller", "War", "Western")


# Share of rated movies per rating class [0,2) [2,4) [4,6) [6,8) [8,10].
# Class sizes are fixed, not drawn: the movie layer holds one clique per
# class, so its edge count, and with it the job's memory, would otherwise
# swing with every draw.
RATING_SHARES = (0.02, 0.08, 0.35, 0.42, 0.13)
UNRATED_SHARE = 0.05


def gen_imdb(rng: random.Random, movies: int, actors: int, studios: int,
             directors: int, cast: int) -> Inputs:
    """IMDb-shaped TSVs: each movie belongs to a studio that supplies its
    cast, its director and a genre palette; 5% of movies are unrated."""
    palettes = [rng.sample(GENRES, 4) for _ in range(studios)]
    actor_ids = [f"nm{i:07d}" for i in range(actors)]
    director_ids = [f"nm{actors + i:07d}" for i in range(directors)]
    rated = movies - round(UNRATED_SHARE * movies)
    classes = [c for c, share in enumerate(RATING_SHARES)
               for _ in range(round(share * rated))]
    classes += [None] * (movies - len(classes))
    rng.shuffle(classes)
    movie_rows = ["tconst\tprimaryTitle\tgenres\taverageRating"]
    acts = ["nconst\ttconst"]
    directs = ["nconst\ttconst"]
    for m, rating_class in enumerate(classes):
        tconst = f"tt{m:07d}"
        studio = rng.randrange(studios)
        genres = ",".join(rng.sample(palettes[studio], rng.randint(1, 3)))
        if rating_class is None:
            rating = r"\N"
        else:
            rating = f"{2 * rating_class + rng.randint(0, 19) / 10:.1f}"
        movie_rows.append(f"{tconst}\tMovie {m}\t{genres}\t{rating}")
        pool = actor_ids[studio::studios]
        for nconst in rng.sample(pool, min(cast, len(pool))):
            acts.append(f"{nconst}\t{tconst}")
        directs.append(f"{rng.choice(director_ids[studio::studios])}\t{tconst}")
    people = ["nconst\tprimaryName"]
    people += [f"{p}\tPerson {p[2:]}" for p in actor_ids + director_ids]
    inputs = Inputs()
    for name, rows in (("movies", movie_rows), ("people", people),
                       ("acts", acts), ("directs", directs)):
        inputs.tsvs[name] = "\n".join(rows) + "\n"
    return inputs


# ---------------------------------------------------------------------------
# set-up: write what the job reads


def write_imdb_tsvs(inputs: Inputs, directory: Path) -> None:
    """Untimed: the TSVs are the generated data, not the program's output."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.tsvs.items():
        (directory / f"{name}.tsv").write_text(text, encoding="utf-8")


def save_synthetic(inputs: Inputs, directory: Path) -> None:
    """The timed set-up of the synthetic workloads."""
    fileio.save_mln(inputs.mln, directory / "mln")
    for m in inputs.memberships:
        (directory / "memberships").mkdir(exist_ok=True)
        fileio.save_membership_tsv(m, directory / "memberships"
                                   / f"membership_{m.layer}.tsv")


def ingest_argv(tsv_dir: Path, directory: Path) -> List[str]:
    """The timed set-up of ``imdb-pipeline``: one CLI command."""
    return ["ingest-imdb", "--movies", str(tsv_dir / "movies.tsv"),
            "--people", str(tsv_dir / "people.tsv"),
            "--acts", str(tsv_dir / "acts.tsv"),
            "--directs", str(tsv_dir / "directs.tsv"),
            "--out", str(directory / "mln")]


# ---------------------------------------------------------------------------
# jobs: the commands one sample runs, each in a fresh process


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    stdout_name: Optional[str] = None  # file in the out dir that keeps stdout


def job_commands(name: str, setup_dir: Path, out: Path) -> List[Command]:
    mln = str(setup_dir / "mln")
    if name == "detect-planted":
        return [Command(("kcommunity", "--mln", mln, "--spec", PLANTED_SPEC,
                         "--metric", "e", "--out", str(out)))]
    if name == "match-dense":
        return [Command(("kcommunity", "--mln", mln, "--spec", DENSE_SPEC,
                         "--memberships", str(setup_dir / "memberships"),
                         "--out", str(out)))]
    return [Command(("kcommunity", "--mln", mln, "--spec", IMDB_SPEC,
                     "--metric", "h", "--out", str(out))),
            Command(("rank", "--result", str(out / "result.jsonl"),
                     "--key", "min_size", "--mln", mln,
                     "--memberships", str(out)), stdout_name="rank.txt")]


def expected_files(name: str) -> List[str]:
    layers = ("A", "D", "M") if name == "imdb-pipeline" else ("L0", "L1", "L2")
    files = ["diagnostics.tsv", "result.jsonl", "result.txt"]
    files += [f"membership_{lid}.tsv" for lid in layers]
    if name == "imdb-pipeline":
        files.append("rank.txt")
    return sorted(files)


GENERATORS: Dict[str, Callable[..., Inputs]] = {
    "detect-planted": gen_detect_planted,
    "match-dense": gen_match_dense,
    "imdb-pipeline": gen_imdb,
}
NAMES = tuple(GENERATORS)


def generate(name: str, seed: int, instance: int, tiny: bool = False) -> Inputs:
    """Instance ``instance`` of the workload for ``seed``. A run cycles its
    jobs over several instances, so that one seed's run time is a median
    over several inputs rather than the luck of one graph."""
    sizes = (TINY_SIZES if tiny else SIZES)[name]
    return GENERATORS[name](random.Random(f"{name}/{seed}/{instance}"), **sizes)
