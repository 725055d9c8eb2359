"""The runtime is pure standard library: every absolute import in
``src/hemln`` names a stdlib module. numpy, scipy or networkx may be
installed for the test oracles, so an accidental runtime import of one of
them would pass every other test. And every name a module imports is used,
every error class is raised somewhere, and every function is called or
exported.

Every command pays for what ``import hemln.cli`` loads, so that import
leaves out the modules only some commands or no command needs."""
import ast
import os
import subprocess
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


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_runtime_modules_use_every_name_they_import():
    # __init__.py imports names only to export them
    unused = {f"{p.name}: {name}" for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "__init__.py" for name in _unused_imports(p)}
    assert not unused


def _raised_names(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised():
    # an error class no code raises is dead weight beside the one that is
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    raised = {name for p in PACKAGE.glob("*.py") for name in _raised_names(p)}
    assert len(classes) >= 20
    assert sorted(classes - raised) == []


def _functions(tree):
    """Module-level functions and non-dunder methods, as (qualified, name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{n.name}", n.name) for n in node.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (n.name.startswith("__") and n.name.endswith("__")))


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


# argparse calls the override; the two builds are the checked public
# constructors of hand-built values (the README Library example, perfbench
# and the tests call them), which no runtime module calls: the loaders check
# each line as they read it, and ingest_imdb makes only valid ids and pairs
CALLED_FROM_OUTSIDE = {"cli.py: _Parser.error", "model.py: LayerGraph.build",
                       "model.py: InterLayerEdges.build"}


def test_every_runtime_function_is_referenced():
    # a function no module calls and the package does not export is dead code
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _referenced(tree)}
    unreferenced = {f"{module}: {qualified}" for module, tree in trees.items()
                    for qualified, name in _functions(tree) if name not in referenced}
    assert sorted(unreferenced - CALLED_FROM_OUTSIDE) == []


# dataclasses pulls in inspect; logging is needed only to warn of a
# duplicate edge; csv and hemln.imdb only by ingest-imdb
NOT_AT_START = ("dataclasses", "inspect", "logging", "csv", "hemln.imdb")


def test_cli_import_leaves_out_what_not_every_command_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import hemln.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "hemln.cli" in out
    assert not set(NOT_AT_START) & set(out)
