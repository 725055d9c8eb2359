import random

import pytest

from hemln import InterLayerEdges, LayerGraph
from hemln.errors import EmptyInput, InvariantViolation, ParseError, ReferentialIntegrity
from hemln.imdb import (
    OVERLAP_MODES,
    ImdbRecords,
    Movie,
    genre_overlap,
    ingest_imdb,
    load_imdb_tsvs,
    rating_class,
)
from oracle import reference_ingest_edges


def test_rating_classes():
    assert rating_class(0.0) == 0
    assert rating_class(1.9) == 0
    assert rating_class(2.0) == 1
    assert rating_class(7.9) == 3
    assert rating_class(8.0) == 4
    assert rating_class(10.0) == 4
    with pytest.raises(ValueError):
        rating_class(10.5)
    with pytest.raises(ValueError):
        rating_class(-0.1)


def test_genre_overlap_modes():
    a = frozenset({"Drama", "Crime"})
    b = frozenset({"Drama", "Comedy", "Crime"})
    assert genre_overlap(a, b) == pytest.approx(1.0)          # 2 / min(2, 3)
    assert genre_overlap(a, b, "jaccard") == pytest.approx(2 / 3)
    assert genre_overlap(frozenset(), b) == 0.0


@pytest.mark.parametrize("mode", ["max", "Jaccard", "", None])
def test_genre_overlap_rejects_an_unknown_mode(mode):
    # it was read as "min", empty sets included
    assert mode not in OVERLAP_MODES
    for a, b in ((frozenset({"x", "y"}), frozenset({"y", "z", "w"})),
                 (frozenset(), frozenset({"x"}))):
        with pytest.raises(InvariantViolation, match=f"^bad overlap mode {mode!r}$"):
            genre_overlap(a, b, mode)


def records_fixture():
    r = ImdbRecords()
    r.movies = {
        "t1": Movie("One", ("Drama", "Crime"), 7.9),
        "t2": Movie("Two", ("Drama",), 8.0),
        "t3": Movie("Three", ("Comedy",), 8.4),
        "t4": Movie("Four", (), None),
    }
    r.people = {"p1": "Ann", "p2": "Bob", "p3": "Cyd", "p4": "Dee", "p5": "Eve"}
    r.acts_in = {("p1", "t1"), ("p2", "t1"), ("p2", "t2"), ("p3", "t3")}
    r.directs = {("p4", "t1"), ("p4", "t2"), ("p5", "t3")}
    return r


def test_ingest_layers_and_links():
    mln, ids = ingest_imdb(records_fixture())
    a, d, m = mln.layer("A"), mln.layer("D"), mln.layer("M")
    # p1/p2 co-act in t1; p3 is isolated in A
    assert len(a.nodes) == 3 and len(a.edges) == 1
    # directors p4 {Drama,Crime}, p5 {Comedy}: overlap 0 < 0.5, no edge
    assert len(d.nodes) == 2 and len(d.edges) == 0
    # ratings 7.9 -> class 3; 8.0, 8.4 -> class 4; t4 unrated isolated
    assert len(m.nodes) == 4
    assert m.edges == {tuple(sorted((ids["M:t2"], ids["M:t3"])))}
    # A-D: p4 directed p1, p2 (via t1/t2); p5 directed p3
    assert len(mln.stored_interlayer("A", "D").links) == 3
    assert len(mln.stored_interlayer("D", "M").links) == 3
    assert len(mln.stored_interlayer("A", "M").links) == 4


def random_records(seed):
    rng = random.Random(seed)
    genres = ("Drama", "Crime", "Comedy", "Horror")
    r = ImdbRecords()
    r.movies = {f"t{i}": Movie(f"T{i}", tuple(rng.sample(genres, rng.randint(0, 3))),
                               rng.choice([None, round(rng.uniform(0, 10), 1)]))
                for i in range(14)}
    r.people = {f"p{i}": f"P{i}" for i in range(12)}
    r.acts_in = {(rng.choice(sorted(r.people)), rng.choice(sorted(r.movies)))
                 for _ in range(30)}
    r.directs = {(rng.choice(sorted(r.people)), rng.choice(sorted(r.movies)))
                 for _ in range(10)}
    return r


@pytest.mark.parametrize("mode", ["min", "jaccard"])
@pytest.mark.parametrize("seed", range(4))
def test_ingested_records_equal_their_build_form(seed, mode):
    # ingest builds LayerGraph and InterLayerEdges directly, with no check
    mln, _ = ingest_imdb(random_records(seed), 0.3, mode)
    assert sum(len(g.edges) for g in mln.layers.values()) > 0
    for g in mln.layers.values():
        assert g == LayerGraph.build(g.id, g.nodes, g.edges)
    for pair in mln.interlayer_pairs():
        x = mln.stored_interlayer(*pair)
        assert x.links and x == InterLayerEdges.build(x.from_layer, x.to_layer, x.links)


def _with_grouped_directors(r):
    """``r`` plus a director whose movie has no genre, two directors with
    equal genre sets listed in different orders, and an unrated movie."""
    r.movies.update(x1=Movie("X1", (), 5.0), x2=Movie("X2", ("War", "Drama"), None),
                    x3=Movie("X3", ("Drama", "War"), 4.4))
    r.people.update(q1="Q1", q2="Q2", q3="Q3")
    r.directs |= {("q1", "x1"), ("q2", "x2"), ("q3", "x3"), ("q3", "x2")}
    return r


@pytest.mark.parametrize("threshold", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("mode", ["min", "jaccard"])
@pytest.mark.parametrize("seed", range(6))
def test_ingest_edges_equal_the_pairwise_definition(seed, mode, threshold):
    records = _with_grouped_directors(random_records(seed))
    mln, ids = ingest_imdb(records, threshold, mode)
    key_of = {i: key for key, i in ids.items()}
    edges = {lid: {frozenset((key_of[u], key_of[v])) for u, v in g.edges}
             for lid, g in mln.layers.items()}
    assert edges == reference_ingest_edges(records, threshold, mode)
    assert frozenset(("D:q2", "D:q3")) in edges["D"]  # one group, joined at 1.0 too
    assert not any("D:q1" in e for e in edges["D"])
    assert edges["A"] and frozenset(("M:x1", "M:x3")) in edges["M"]


def test_ingest_drops_creditless_people():
    r = records_fixture()
    r.people["p9"] = "Zed"  # no credits
    mln, ids = ingest_imdb(r)
    assert "A:p9" not in ids and "D:p9" not in ids
    assert len(mln.layer("A").nodes) == 3


def test_ingest_dense_deterministic_ids():
    _, ids = ingest_imdb(records_fixture())
    assert sorted(ids.values()) == list(range(len(ids)))
    _, again = ingest_imdb(records_fixture())
    assert ids == again


def test_ingested_mln_equals_its_save_load(tmp_path):
    from hemln.fileio import load_mln, save_mln
    mln, _ = ingest_imdb(records_fixture())
    save_mln(mln, tmp_path / "mln")
    assert load_mln(tmp_path / "mln") == mln


def test_ingest_referential_integrity():
    r = records_fixture()
    r.acts_in.add(("p1", "t999"))
    with pytest.raises(ReferentialIntegrity):
        ingest_imdb(r)
    with pytest.raises(EmptyInput):
        ingest_imdb(ImdbRecords())


def test_people_without_movies_is_empty_input():
    r = ImdbRecords()
    r.people.update(p1="Ann", p2="Bob")
    with pytest.raises(EmptyInput, match="no movies"):
        ingest_imdb(r)
    r.acts_in.add(("p1", "t1"))  # a credit to no movie is still dangling
    with pytest.raises(ReferentialIntegrity, match="unknown movie t1"):
        ingest_imdb(r)


def test_jaccard_threshold_changes_director_edges():
    r = records_fixture()
    r.movies["t3"] = Movie("Three", ("Comedy", "Drama"), 8.4)
    mln_min, _ = ingest_imdb(r, 0.5, "min")
    # p4 {Drama,Crime} vs p5 {Comedy,Drama}: min-overlap 1/2 >= 0.5 -> edge
    assert len(mln_min.layer("D").edges) == 1
    mln_jac, _ = ingest_imdb(r, 0.5, "jaccard")
    # jaccard 1/3 < 0.5 -> no edge
    assert len(mln_jac.layer("D").edges) == 0


@pytest.mark.parametrize("threshold, mode", [
    (float("nan"), "min"), (float("inf"), "min"), (2.0, "jaccard"),
    (0.0, "min"), (-1.0, "jaccard"), (0.5, "max"), (0.5, "Jaccard")])
def test_ingest_rejects_a_threshold_outside_0_1_or_an_unknown_mode(threshold, mode):
    # NaN or above 1 joins no directors, 0 or below joins any two; an unknown
    # mode would be taken for "min"
    with pytest.raises(InvariantViolation):
        ingest_imdb(records_fixture(), threshold, mode)


@pytest.mark.parametrize("rating", [10.5, -0.1, float("nan")])
def test_ingest_rejects_a_rating_outside_0_10(rating):
    # a library-built Movie: load_imdb_tsvs checks its ratings as it reads them
    r = records_fixture()
    r.movies["t2"] = Movie("Two", ("Drama",), rating)
    with pytest.raises(InvariantViolation,
                       match=rf"^movie t2: rating {rating} outside \[0,10\]$"):
        ingest_imdb(r)


def test_ingest_accepts_a_threshold_of_1():
    mln, _ = ingest_imdb(records_fixture(), 1.0, "jaccard")
    assert mln.layer("D").nodes


def write_tsvs(tmp_path):
    (tmp_path / "movies.tsv").write_text(
        "tconst\tprimaryTitle\tgenres\taverageRating\n"
        "t1\tOne\tDrama,Crime\t7.9\n"
        "t2\tTwo\tDrama\t\\N\n")
    (tmp_path / "people.tsv").write_text(
        "nconst\tprimaryName\np1\tAnn\np2\tBob\n")
    (tmp_path / "acts.tsv").write_text(
        "nconst\ttconst\np1\tt1\n")
    (tmp_path / "directs.tsv").write_text(
        "nconst\ttconst\np2\tt1\np2\tt2\n")
    return (tmp_path / "movies.tsv", tmp_path / "people.tsv",
            tmp_path / "acts.tsv", tmp_path / "directs.tsv")


def test_title_starting_with_a_quote_keeps_later_rows(tmp_path):
    # IMDb files are unquoted: a leading '"' is part of the title
    movies, people, acts, directs = write_tsvs(tmp_path)
    movies.write_text(
        "tconst\tprimaryTitle\tgenres\taverageRating\n"
        "t1\t\"Quoted start\tDrama\t7.9\n"
        "t2\tTwo\tDrama\t8.1\n"
        "t3\tThree\tComedy\t\\N\n")
    records = load_imdb_tsvs(movies, people, acts, directs)
    assert sorted(records.movies) == ["t1", "t2", "t3"]
    assert records.movies["t1"].title == '"Quoted start'
    assert records.movies["t2"].rating == 8.1


def test_load_imdb_tsvs(tmp_path):
    records = load_imdb_tsvs(*write_tsvs(tmp_path))
    assert records.movies["t1"].genres == ("Drama", "Crime")
    assert records.movies["t1"].rating == 7.9
    assert records.movies["t2"].rating is None
    assert records.people == {"p1": "Ann", "p2": "Bob"}
    assert records.acts_in == {("p1", "t1")}
    assert records.directs == {("p2", "t1"), ("p2", "t2")}
    mln, _ = ingest_imdb(records)
    assert set(mln.layers) == {"A", "D", "M"}


MOVIES_HEADER = "tconst\tprimaryTitle\tgenres\taverageRating\n"


@pytest.mark.parametrize("file, text, message", [
    ("movies", MOVIES_HEADER + "t1\tOne\tDrama\t7.9\n\\N\tNull\tDrama\t7.0\n",
     r"line 3: .*movies\.tsv: tconst is empty or \\N"),
    ("movies", MOVIES_HEADER + "\tNull\tDrama\t7.0\n",
     r"line 2: .*movies\.tsv: tconst is empty"),
    ("people", "nconst\tprimaryName\np1\tAnn\n\\N\tNobody\n",
     r"line 3: .*people\.tsv: nconst is empty or \\N"),
    ("acts", "nconst\ttconst\np1\n", r"line 2: .*acts\.tsv: tconst is empty"),
    ("directs", "nconst\ttconst\n\tt1\n", r"line 2: .*directs\.tsv: nconst is empty"),
], ids=["movie-null-key", "movie-empty-key", "person-null-key", "credit-short-row",
        "credit-empty-person"])
def test_load_imdb_tsvs_rejects_an_empty_or_null_key(tmp_path, file, text, message):
    # each such row named no record: it made the node M:\N or M:, or failed
    # later as an unknown movie with an empty name and no line
    paths = dict(zip(("movies", "people", "acts", "directs"), write_tsvs(tmp_path)))
    paths[file].write_text(text)
    with pytest.raises(ParseError, match=message):
        load_imdb_tsvs(*paths.values())
