"""The public surface: every exported name resolves, and none is listed twice."""

import os
import subprocess
import sys

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
