import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import specgap

MODULES = sorted(m.name for m in pkgutil.iter_modules(specgap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"specgap.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"specgap.{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"specgap.{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"duplicates in specgap.{name}.__all__"


def test_star_import_is_clean():
    namespace = {}
    exec("from specgap import *", namespace)
    assert set(specgap.__all__) <= set(namespace)


ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = [ROOT / "src" / "specgap", ROOT / "demos", ROOT / "bench"]

# Exported names, and members of exported classes, that nothing in SOURCES
# calls, kept for the stated reason
UNCALLED = {
    "certificate_from_dict": "reads the certificate files that --out writes",
    "write_set": "writes the set files read_set reads for cfun-disconnect --set",
    "write_norm_spec": "writes the norm files read_norm_spec reads for --norm",
    "BlockOperator.is_zero": "the tests' oracle for an operator that vanishes blockwise",
    "CompactRealSet.contains": "the tests' oracle for membership in a set",
    "CompactRealSet.restrict": "the tests' oracle for a set cut to an interval",
}


def _references(tree) -> set:
    """Names a module loads, reads as an attribute or spells as a string
    (bench/tracing.py binds its targets by name), leaving out `__all__`
    lists and each name's uses inside its own def or class."""
    refs = set()

    def visit(node, enclosing):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in enclosing:
            refs.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return refs


def _members(cls) -> set:
    """A class's own public methods, properties and dataclass fields."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    names |= {n for n, v in vars(cls).items()
              if inspect.isfunction(v) or isinstance(v, (property, staticmethod, classmethod))}
    return {n for n in names if not n.startswith("_")}


def test_every_export_has_a_caller():
    refs = set()
    for source in SOURCES:
        for path in sorted(source.glob("*.py")):
            refs |= _references(ast.parse(path.read_text(), filename=str(path)))
    exported = {n: getattr(module, n) for m in MODULES
                for module in [importlib.import_module(f"specgap.{m}")]
                for n in module.__all__}
    uncalled = {n for n in exported if n not in refs}
    uncalled |= {f"{n}.{member}" for n, obj in exported.items()
                 if inspect.isclass(obj) and obj.__module__.startswith("specgap.")
                 for member in _members(obj) if member not in refs}
    assert sorted(uncalled - set(UNCALLED)) == []
    # the kept list stays exact: a name that gains a caller leaves it
    assert sorted(set(UNCALLED) - uncalled) == []


def test_only_the_codec_imports_json():
    """Every JSON file and report is spelled by `specgap._jsonio`, so the
    byte format keeps one home."""
    importers = []
    for path in sorted((ROOT / "src" / "specgap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "json" or n.startswith("json.") for n in names):
                importers.append(path.name)
    assert importers == ["_jsonio.py"]


# Names a module imports but does not use, kept for the stated reason
UNUSED_IMPORTS = {
    ("perturb", "rightmost_boundary_point"): "bench/tracing.py rebinds it as a target",
    ("riesz", "eigenvalues"): "bench/tracing.py rebinds it as a target",
}


def test_every_import_is_used():
    """Each name a module of the package imports (`__future__` aside) is
    read in that module, so no import outlives its last use."""
    unused = set()
    for path in sorted((ROOT / "src" / "specgap").glob("*.py")):
        if path.name == "__init__.py":      # it imports to re-export
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert sorted(unused) == sorted(UNUSED_IMPORTS)
