"""IMDb-style dataset ingestion into a three-layer network.

Layers built from movie/people/credit records:

* ``A`` (actors): edge between two actors who acted together in at least
  one movie, built as one clique per cast;
* ``D`` (directors): edge between two directors whose aggregated genre
  sets overlap by at least the threshold (default 0.5, intersection over
  the smaller set; Jaccard optional), tested once per two distinct sets;
* ``M`` (movies): one clique per rating class, classes
  [0,2) [2,4) [4,6) [6,8) [8,10]; unrated movies stay isolated.

Inter-layer links: director-actor (directed that actor in some movie),
director-movie, actor-movie, each the sorted tuple of its distinct id
pairs (a credit set's pairs are already distinct). Node ids are dense
integers assigned in a fixed order (actors, directors, movies; each
sorted by external key), so ingestion is deterministic; ``ingest_imdb``
returns the key -> id map.
"""
from __future__ import annotations

import csv
from itertools import chain, combinations_with_replacement, count, product
from pathlib import Path
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .errors import (EmptyInput, InvariantViolation, IoError, ParseError,
                     ReferentialIntegrity)
from .model import MLN, InterLayerEdges, LayerGraph

RATING_CLASS_COUNT = 5
OVERLAP_MODES = ("min", "jaccard")  # the CLI's --overlap-mode choices


class Movie(NamedTuple):
    title: str
    genres: Tuple[str, ...]
    rating: Optional[float]


class ImdbRecords:
    def __init__(self) -> None:
        self.movies: Dict[str, Movie] = {}
        self.people: Dict[str, str] = {}  # id -> name
        self.acts_in: Set[Tuple[str, str]] = set()  # (person, movie)
        self.directs: Set[Tuple[str, str]] = set()

    def validate(self) -> None:
        for key, movie in self.movies.items():
            if movie.rating is not None:
                try:
                    rating_class(movie.rating)
                except ValueError as exc:
                    raise InvariantViolation(f"movie {key}: {exc}") from None
        for rel, name in ((self.acts_in, "acts_in"), (self.directs, "directs")):
            for person, movie in rel:
                if person not in self.people:
                    raise ReferentialIntegrity(f"{name}: unknown person {person}")
                if movie not in self.movies:
                    raise ReferentialIntegrity(f"{name}: unknown movie {movie}")


def rating_class(rating: float) -> int:
    """Class index 0..4 for the ranges [0,2) [2,4) [4,6) [6,8) [8,10]."""
    if not (0.0 <= rating <= 10.0):
        raise ValueError(f"rating {rating} outside [0,10]")
    return min(int(rating // 2), RATING_CLASS_COUNT - 1)


def genre_overlap(a: FrozenSet[str], b: FrozenSet[str], mode: str = "min") -> float:
    if mode not in OVERLAP_MODES:
        raise InvariantViolation(f"bad overlap mode {mode!r}")
    if not a or not b:
        return 0.0
    inter = len(a & b)
    if mode == "jaccard":
        return inter / len(a | b)
    return inter / min(len(a), len(b))


def ingest_imdb(records: ImdbRecords,
                genre_overlap_threshold: float = 0.5,
                overlap_mode: str = "min") -> Tuple[MLN, Dict[str, int]]:
    """Build the three-layer network; returns (mln, external key -> node id).

    Actor and director keys in the id map are prefixed ``A:`` / ``D:`` since
    one person may appear in both roles (as distinct nodes).
    """
    if not 0.0 < genre_overlap_threshold <= 1.0:  # (0,1], so not NaN
        raise InvariantViolation(f"bad genre overlap threshold {genre_overlap_threshold}")
    if overlap_mode not in OVERLAP_MODES:
        raise InvariantViolation(f"bad overlap mode {overlap_mode!r}")
    records.validate()
    if not records.movies:  # then no credit either: no layer would have a node
        raise EmptyInput("no movies to ingest")

    movies_of_director: Dict[str, Set[str]] = {}
    for person, movie in records.directs:
        movies_of_director.setdefault(person, set()).add(movie)

    # people with no credited movies are dropped: they can carry no links
    actors = sorted({person for person, _ in records.acts_in})
    directors = sorted(movies_of_director)
    movies = sorted(records.movies)

    number = count()  # one id sequence: actors, then directors, then movies
    aid = {a: next(number) for a in actors}
    did = {d: next(number) for d in directors}
    mid = {m: next(number) for m in movies}
    ids = {f"{role}:{key}": i for role, of in (("A", aid), ("D", did), ("M", mid))
           for key, i in of.items()}

    # layer A: one clique per cast
    cast: Dict[str, Set[str]] = {}
    for person, movie in records.acts_in:
        cast.setdefault(movie, set()).add(person)
    layer_a = LayerGraph.of("A", frozenset(aid.values()), (
        map(aid.__getitem__, members) for members in cast.values()))

    # layer D: aggregated genre overlap, tested once per two distinct genre sets
    by_genres: Dict[FrozenSet[str], List[int]] = {}
    for d in directors:
        by_genres.setdefault(frozenset(
            g for m in movies_of_director[d] for g in records.movies[m].genres),
            []).append(did[d])
    layer_d = LayerGraph.of("D", frozenset(did.values()), chain.from_iterable(
        [by_genres[a]] if a is b else product(by_genres[a], by_genres[b])
        for a, b in combinations_with_replacement(by_genres, 2)
        if genre_overlap(a, b, overlap_mode) >= genre_overlap_threshold))

    # layer M: one clique per rating class
    by_class: Dict[int, List[int]] = {}
    for m in movies:
        rating = records.movies[m].rating
        if rating is not None:
            by_class.setdefault(rating_class(rating), []).append(mid[m])
    layer_m = LayerGraph.of("M", frozenset(mid.values()), by_class.values())

    mln = MLN()
    mln.add_layer(layer_a).add_layer(layer_d).add_layer(layer_m)
    mln.add_interlayer(InterLayerEdges("A", "D", tuple(sorted({
        (aid[a], did[d]) for d, ms in movies_of_director.items()
        for m in ms for a in cast.get(m, ())}))))
    mln.add_interlayer(InterLayerEdges("D", "M", tuple(sorted(
        (did[d], mid[m]) for d, m in records.directs))))
    mln.add_interlayer(InterLayerEdges("A", "M", tuple(sorted(
        (aid[a], mid[m]) for a, m in records.acts_in))))
    return mln.freeze(), ids


# ---------------------------------------------------------------------------
# TSV loading (IMDb public-dataset column conventions; extra columns ignored,
# a repeated, empty or \N tconst or nconst is an error)

_MISSING = ("", r"\N")


def load_imdb_tsvs(movies_path, people_path, acts_path, directs_path) -> ImdbRecords:
    records = ImdbRecords()
    for row, lineno in _tsv_rows(movies_path, ("tconst",)):
        key = row["tconst"]
        if key in records.movies:
            raise ParseError(f"repeated tconst {key!r}", lineno)
        raw_rating = row.get("averageRating", "")
        genres = tuple(g for g in row.get("genres", "").split(",")
                       if g and g not in _MISSING)
        try:
            rating = None if raw_rating in _MISSING else float(raw_rating)
            if rating is not None:
                rating_class(rating)
        except ValueError as exc:
            raise ParseError(f"averageRating {raw_rating!r}: {exc}", lineno) from None
        records.movies[key] = Movie(row.get("primaryTitle", key), genres, rating)
    for row, lineno in _tsv_rows(people_path, ("nconst",)):
        key = row["nconst"]
        if key in records.people:
            raise ParseError(f"repeated nconst {key!r}", lineno)
        records.people[key] = row.get("primaryName", key)
    for row, _ in _tsv_rows(acts_path, ("nconst", "tconst")):
        records.acts_in.add((row["nconst"], row["tconst"]))
    for row, _ in _tsv_rows(directs_path, ("nconst", "tconst")):
        records.directs.add((row["nconst"], row["tconst"]))
    return records


def _tsv_rows(path, required: Tuple[str, ...]):
    """Rows as dicts with their line numbers; short rows read as empty fields,
    and no row may leave a ``required`` column empty or ``\\N``."""
    try:
        with Path(path).open(encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle, delimiter="\t", restval="",
                                    quoting=csv.QUOTE_NONE)
            for column in required:
                if column not in (reader.fieldnames or ()):
                    raise ParseError(f"{path}: missing column {column!r}", 1)
            for row in reader:  # DictReader.line_num lags past blank lines
                lineno = reader.reader.line_num
                for column in required:
                    if row[column] in _MISSING:
                        raise ParseError(f"{path}: {column} is empty or \\N", lineno)
                yield row, lineno
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: {exc}") from None
    except csv.Error as exc:  # e.g. an oversized field; DictReader.line_num lags
        raise ParseError(f"{path}: {exc}", reader.reader.line_num) from None
