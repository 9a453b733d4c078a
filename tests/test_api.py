"""The public surface: every exported name resolves, none is listed twice, and
every top-level definition is used in the package or exported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import opframe


def test_all_names_resolve():
    missing = [name for name in opframe.__all__ if not hasattr(opframe, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(opframe.__all__) == len(set(opframe.__all__))


def test_import_loads_no_scipy():
    """opframe runs every dense kernel on numpy's BLAS; scipy would load a
    second OpenBLAS with its own spinning worker threads."""
    code = (
        "import sys, opframe, opframe.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(opframe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_every_top_level_definition_is_used_or_exported():
    """A top-level function or class of src/opframe must be referenced in
    src/ apart from its own definition, or be listed in opframe.__all__: a
    helper that only tests use does not belong in the package."""
    trees = [ast.parse(path.read_text()) for path in Path(opframe.__file__).parent.glob("*.py")]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used - set(opframe.__all__)) == []
