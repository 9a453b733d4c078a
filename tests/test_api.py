"""The public surface: every exported name resolves, none is listed twice,
every top-level definition is used in the package or exported, every
exported function is reached from the package or the benchmark workloads,
and every exported error is raised in the package."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opframe


def test_all_names_resolve():
    missing = [name for name in opframe.__all__ if not hasattr(opframe, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(opframe.__all__) == len(set(opframe.__all__))


def test_import_loads_no_scipy():
    """opframe runs every dense kernel on numpy's BLAS; scipy would load a
    second OpenBLAS with its own spinning worker threads.  Validating and running a
    scenario through the CLI loads no jsonschema (the schema is read directly) and
    no importlib.metadata (the version is opframe.__version__) either."""
    code = (
        "import sys, tempfile, opframe, opframe.cli\n"
        "from opframe.scenarios import load_bundled, validate_scenario\n"
        "validate_scenario(load_bundled('exm2'))\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    code = opframe.cli.main(['reproduce', 'difference', '--out', tmp + '/r.json'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')\n"
        "                   or m.startswith('importlib.metadata')))"
    )
    src = os.path.dirname(os.path.dirname(opframe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 []"


#: what src/opframe may import besides the standard library and itself; scipy and
#: jsonschema are test-only extras
THIRD_PARTY = {"numpy"}


def test_imports_only_the_stdlib_and_numpy():
    """Every import in src/opframe, at module level or inside a function, is of the standard
    library, numpy or opframe itself."""
    found = set()
    for path in Path(opframe.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert sorted(found - set(sys.stdlib_module_names) - THIRD_PARTY - {"opframe"}) == []


def test_one_version():
    """pyproject.toml's version is opframe.__version__, which every report's tool_version
    records; nothing reads installed package metadata."""
    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == opframe.__version__


def test_every_top_level_definition_is_used_or_exported():
    """A top-level function or class of src/opframe must be named in src/ outside its own
    definition (a recursive call does not count), or be listed in opframe.__all__: a helper
    that only tests use does not belong in the package."""
    trees = [ast.parse(path.read_text()) for path in Path(opframe.__file__).parent.glob("*.py")]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = set()
    for tree in trees:
        for stmt in tree.body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            own = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            used |= names - ({stmt.name} if own else set())
    assert sorted(defined - used - set(opframe.__all__)) == []


def _from_opframe(node):
    """Whether node imports from opframe: ``from .seqops import analysis``,
    ``from . import constructions as C`` or ``from opframe import seqops``."""
    return (isinstance(node, ast.ImportFrom)
            and (node.level > 0 or node.module.split(".")[0] == "opframe"))


def test_every_exported_function_is_reached():
    """An exported function must be referenced from src/ or from
    perfbench/workloads.py or perfbench/sweep.py, outside its own definition: a
    public helper that only tests reach does not belong in the package.  A bare
    name counts in the module that defines it, elsewhere an import from opframe
    does, or an attribute of an opframe module (``C.gabor_system``,
    ``seqops.reconstruct``): ``np.linalg.norm`` does not reach ``hilbert.norm``."""
    pkg = Path(opframe.__file__).parent
    bench = pkg.parent.parent / "perfbench"
    functions = {name: getattr(opframe, name).__module__ for name in opframe.__all__
                 if inspect.isfunction(getattr(opframe, name))}
    sources = {f"opframe.{path.stem}": path for path in pkg.glob("*.py")
               if path.name != "__init__.py"}
    sources.update({name: bench / f"{name}.py" for name in ("workloads", "sweep")})
    package = {path.stem for path in pkg.glob("*.py")}
    reached = set()
    for module, path in sources.items():
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name for node in ast.walk(tree) if _from_opframe(node)
                   for alias in node.names if alias.name in package}
        for stmt in tree.body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and functions.get(node.id) == module:
                    refs.add(node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    refs.add(node.attr)
                elif _from_opframe(node):
                    refs.update(alias.name for alias in node.names)
            if isinstance(stmt, ast.FunctionDef) and functions.get(stmt.name) == module:
                refs.discard(stmt.name)  # a call in its own body does not reach it
            reached |= refs
    assert sorted(set(functions) - reached) == []


def test_every_exported_error_is_raised():
    """Each exported subclass of OpframeError is raised somewhere in src/opframe:
    an error class whose last raiser is gone leaves the package with it."""
    exported = {name: getattr(opframe, name) for name in opframe.__all__}
    errors = {name for name, obj in exported.items() if isinstance(obj, type)
              and issubclass(obj, opframe.OpframeError) and obj is not opframe.OpframeError}
    raised = set()
    for path in Path(opframe.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert sorted(errors - raised) == []


#: the parameters with a default of each function in opframe.__all__ (18 in all): each is data
#: the caller describes, such as a label, a domain, a window or a sample count; no tolerance,
#: rank cut or seed, which are module constants (README, "Numerical policy")
FUNCTION_DEFAULTS = {
    "interval_grid": ["x0", "x1", "label"], "l2_truncation": ["label"], "window_grid": ["label"],
    "diagonal_operator": ["name"], "user_dual": ["certificate_residual"],
    "verify_weak_duality": ["trials", "hs", "us"], "exponential_system": ["derivative"],
    "gabor_system": ["window_deriv", "derivative", "m_values"], "pw_example": ["taper"],
    "wavelet_system": ["support", "mother_deriv", "derivative"],
}

#: the fields with a default of each exported class
FIELD_DEFAULTS = {
    "HilbertModel": ["label", "points"], "Subspace": ["index"],
    "OperatorModel": ["domain", "adjoint_domain", "name", "projection", "stencil"],
    "FrameSequence": ["index_labels"], "DualSequence": ["graph_space"],
}


def test_defaulted_parameters_are_pinned():
    """A new optional parameter of an exported function or class, a numerical knob above all,
    needs a deliberate edit here; the cuts and seeds behind a verdict take none."""
    found = {}
    for name in opframe.__all__:
        obj = getattr(opframe, name)
        if inspect.isfunction(obj) or (isinstance(obj, type) and not issubclass(obj, Exception)):
            params = inspect.signature(obj).parameters.values()
            if defaulted := [p.name for p in params if p.default is not inspect.Parameter.empty]:
                found[name] = defaulted
    assert found == {**FUNCTION_DEFAULTS, **FIELD_DEFAULTS}


def test_no_module_reads_the_environment():
    """No environment variable changes what a scenario computes or reports: no module of
    src/opframe reads os.environ or calls os.getenv, under any alias."""
    found = set()
    for path in Path(opframe.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.add((path.stem, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.update((path.stem, alias.name) for alias in node.names
                             if alias.name in ("environ", "getenv"))
    assert found == set()


#: how a matrix is factored: the SVD, its rank cut, the certificate (R^-1 by
#: ``triangular_inverse`` and the kappa_F ceiling) and the reflection-parity layout of
#: the blocks (``_pair``)
DECISION = {"thin_svd", "rank_cut", "triangular_inverse", "_DIRECT_COND", "_pair"}


def test_factorization_is_decided_in_linalg_only():
    """Whether a matrix takes the certified triangular factor or an SVD, and
    where its singular values are cut, is ``_linalg.factor``'s decision: no
    other module of src/opframe imports or names what it decides with."""
    found = {}
    for path in Path(opframe.__file__).parent.glob("*.py"):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            for name in names & DECISION:
                found.setdefault(path.stem, set()).add(name)
    assert found == {}


#: the numpy.linalg kernels of a Gram matrix: its normal equations and its spectrum
GRAM_KERNELS = {"solve", "eigvalsh", "eigh"}


def _numpy_linalg_callers(kernels):
    """module.name of each top-level definition of src/opframe that calls one of the
    numpy.linalg kernels, or imports one from numpy.linalg."""
    found = set()
    for path in Path(opframe.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                    called = {alias.name for alias in node.names}
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and ast.unparse(node.func.value).endswith("linalg"):
                    called = {node.func.attr}
                else:
                    continue
                if called & kernels:
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_gram_kernels_run_only_where_the_gram_is_the_object():
    """Outside ``_linalg`` np.linalg.solve, eigvalsh and eigh run only where a Gram itself is
    wanted: the graph inner product's I + At^H At and the frame operator's spectrum.  Every dual,
    the canonical one included, solves through ``factor``'s record, with no normal equations."""
    found = {name for name in _numpy_linalg_callers(GRAM_KERNELS)
             if not name.startswith("_linalg.")}
    assert found == {"opmodel._graph_solve", "seqops._whitened_spectrum"}


def test_one_svd_kernel():
    """np.linalg.svd runs in ``_linalg._svd`` alone, so every SVD, a values-only one too, is
    split into the diagonal blocks its matrix's exact zeros give."""
    assert _numpy_linalg_callers({"svd"}) == {"_linalg._svd"}
