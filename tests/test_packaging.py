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
