import pytest

from hemln.errors import EmptyInput, ReferentialIntegrity
from hemln.imdb import (
    ImdbRecords,
    Movie,
    genre_overlap,
    ingest_imdb,
    load_imdb_tsvs,
    rating_class,
)


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


def test_jaccard_threshold_changes_director_edges():
    r = records_fixture()
    r.movies["t3"] = Movie("Three", ("Comedy", "Drama"), 8.4)
    mln_min, _ = ingest_imdb(r, 0.5, "min")
    # p4 {Drama,Crime} vs p5 {Comedy,Drama}: min-overlap 1/2 >= 0.5 -> edge
    assert len(mln_min.layer("D").edges) == 1
    mln_jac, _ = ingest_imdb(r, 0.5, "jaccard")
    # jaccard 1/3 < 0.5 -> no edge
    assert len(mln_jac.layer("D").edges) == 0


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
