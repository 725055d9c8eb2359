"""The runtime is pure standard library: every absolute import in
``src/hemln`` names a stdlib module. numpy, scipy or networkx may be
installed for the test oracles, so an accidental runtime import of one of
them would pass every other test."""
import ast
import sys
from pathlib import Path

import hemln

PACKAGE = Path(hemln.__file__).parent


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = {f"{p.name}: {name}" for p in sources
               for name in _absolute_imports(p)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside
