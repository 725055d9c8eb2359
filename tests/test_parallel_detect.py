"""A command detects its layers one after another, and only after it has
checked every layer pair it names: a bad pair detects no layer."""
import pytest

from hemln import cli


@pytest.mark.parametrize("pair_or_spec, message", [
    ("L0,L2", "no inter-layer edges between L0 and L2"),
    ("L0,L0", "no inter-layer edges between L0 and L0"),
    ("L0,ZZ", "layer ZZ not in MLN"),
    ("ZZ,L0", "layer ZZ not in MLN"),
    # a kcommunity spec step is checked the same way, also before detection
    ("L0 #(L0,L2) L2", "no inter-layer edges between L0 and L2"),
])
def test_cbg_checks_its_pair_before_detection(planted_mln_dir, tmp_path, capsys,
                                              monkeypatch, pair_or_spec, message):
    detected = []
    monkeypatch.setattr(cli, "detect_communities",
                        lambda g, seed=0: detected.append(g.id))
    argv = (["kcommunity", "--spec", pair_or_spec, "--out", str(tmp_path / "out")]
            if " " in pair_or_spec else ["cbg", "--pair", pair_or_spec])
    assert cli.main(argv + ["--mln", str(planted_mln_dir)]) == 2
    assert capsys.readouterr().err == f"hemln: {message}\n"
    assert detected == []
    assert not (tmp_path / "out").exists()
