import ast
import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import cutproject

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_script_target_resolves():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_import_does_not_load_logging():
    """Route lines go through ``_scaled.debug``, which finds ``logging`` only
    if something else loaded it: importing the package must not.  The child
    imports the copy under test, from ``src`` or from an install."""
    code = (
        "import sys, cutproject, cutproject.acceptance, cutproject.bdmatch, cutproject.criteria, "
        "cutproject.discrepancy; assert 'logging' not in sys.modules, sys.modules['logging']"
    )
    path = [str(Path(cutproject.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, unless it re-exports them in __all__."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """Every name imported in src/cutproject (but the re-exports of __init__) and in
    tests/ is used; the project runs no linter, so this test is that check."""
    root = PYPROJECT.parent
    paths = [p for p in (root / "src" / "cutproject").glob("*.py") if p.name != "__init__.py"]
    paths += (root / "tests").glob("*.py")
    assert paths
    assert [u for p in sorted(paths) for u in _unused_imports(p)] == []
