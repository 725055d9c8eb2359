"""The README's Library example runs as written, and every name the package
exports resolves, so a stale export or an example calling a removed name
fails here."""
from pathlib import Path

import hemln

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    assert capsys.readouterr().out == ("< c_G1^1, c_G2^1 ; x_{G1,G2} >\n"
                                       "< c_G1^2, c_G2^2 ; x_{G1,G2} >\n\n")
    assert [t.communities for t in namespace["best_first"]] == [(1, 1), (2, 2)]
    assert len(namespace["pairs"]) == 2


def test_every_exported_name_resolves():
    assert [name for name in hemln.__all__ if not hasattr(hemln, name)] == []
    namespace = {}
    exec("from hemln import *", namespace)
    assert set(hemln.__all__) <= namespace.keys()
