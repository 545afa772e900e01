"""Static checks of the package source: every import and every module-level
name is used (a public one may instead be exported), no private name is
defined in two modules, the README names every public name, shows each call
with an arity the function accepts and each `module.name` as one that
resolves, every dataclass field is read by the package, no module imports
another's private names, the public surface names each object once, and
each config key is declared once."""
import ast
import importlib
import inspect
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import nhbath
from nhbath.config import _COMMON, _READS, KNOWN_KEYS, ExperimentConfig

SRC = Path(nhbath.__file__).resolve().parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are re-exported
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
        # under `from __future__ import annotations` a quoted annotation is
        # still code
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value))
                            if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def _module_names(tree):
    """Names bound at module level, dunders excluded."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if not n.startswith("__")}


def _references(tree):
    """Names read in a module: loads, attributes and imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _benchmark_reads():
    """Names the benchmark reads as `nhbath.<module>.<name>` (perfbench/)."""
    reads = set()
    for path in sorted((SRC.parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and getattr(node.value.value, "id", None) == "nhbath"):
                reads.add(node.attr)
    return reads


def _unreferenced_names(private):
    """Module-level names, private or public, that no module of the package
    reads; a public name listed in `nhbath.__all__` or read by the benchmark
    as `nhbath.<module>.<name>` counts as read."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    used = set(nhbath.__all__).union(_benchmark_reads(),
                                     *map(_references, trees.values()))
    return [f"{name}: {n}" for name, tree in trees.items()
            for n in sorted(_module_names(tree) - used)
            if n.startswith("_") == private]


def test_no_unreferenced_private_names():
    # a private helper, constant or class that no module of the package reads
    # is a leftover of code that was deleted around it
    assert _unreferenced_names(private=True) == []


def test_no_unreferenced_public_names():
    # so is a public one that the package neither reads nor exports
    assert _unreferenced_names(private=False) == []


def test_no_private_name_is_defined_twice():
    # two private helpers of one name in two modules read as one rule
    defined = Counter(n for p in sorted(SRC.glob("*.py"))
                      for n in _module_names(ast.parse(p.read_text("utf-8")))
                      if n.startswith("_"))
    assert [name for name, n in defined.items() if n > 1] == []


def _readme():
    return (SRC.parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_names_every_public_name():
    words = set(re.findall(r"\w+", _readme()))
    assert [name for name in nhbath.__all__
            if not name.startswith("__") and name not in words] == []


def _modules():
    return {p.stem: importlib.import_module(f"nhbath.{p.stem}")
            for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _accepts(func, n_args):
    try:
        inspect.signature(func).bind(*range(n_args))
    except TypeError:
        return False
    return True


def test_readme_calls_match_the_package_signatures():
    # a signature the README shows is one a reader will type; the backticks
    # of `name(a, b, ...)` may span a line break
    modules = _modules()
    calls = re.findall(r"`(\w+)\(([^`()]*)\)`", _readme())
    assert calls  # the scan sees the README's signatures
    wrong = []
    for name, args in calls:
        funcs = [getattr(m, name) for m in modules.values() if hasattr(m, name)]
        n_args = len(args.split(",")) if args.strip() else 0
        if not funcs or not all(_accepts(f, n_args) for f in funcs):
            wrong.append(f"{name}({args})")
    assert wrong == []


def test_readme_module_references_resolve():
    modules = _modules()
    refs = [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", _readme())
            if m in modules]
    assert refs  # the scan sees the README's module references
    assert [f"{m}.{n}" for m, n in refs if not hasattr(modules[m], n)] == []


def _dataclass_fields(tree):
    """(class, field) of every annotated field of a @dataclass class."""
    def is_dataclass(dec):
        return getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
    return [(node.name, item.target.id) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(map(is_dataclass, node.decorator_list))
            for item in node.body if isinstance(item, ast.AnnAssign)]


def test_every_dataclass_field_is_read():
    # a field the package never reads as an attribute is a result it computes
    # but never writes, or an echo of what its caller already knows; a read
    # in a test does not count
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    declared = [f for tree in trees for f in _dataclass_fields(tree)]
    assert declared  # the scan sees the package's dataclasses
    assert [f"{cls}.{name}" for cls, name in declared if name not in read] == []


def _private_package_imports(tree):
    """Single-underscore names imported from other modules of the package."""
    return sorted(f"{alias.name} (line {node.lineno})"
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("nhbath"))
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    # a rule another module needs is public in the module that owns it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _private_package_imports(tree) == []


def test_public_names_resolve_once():
    counts = Counter(nhbath.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in counts if not hasattr(nhbath, name)] == []


def test_each_config_key_is_declared_once():
    # one ExperimentConfig field per key, carrying its rule and stored type:
    # KNOWN_KEYS lists the fields and the experiment table names no key
    # without one
    assert [f.name for f in fields(ExperimentConfig)] == list(KNOWN_KEYS)
    assert all(set(f.metadata) == {"rule", "store"}
               for f in fields(ExperimentConfig))
    named = set(_COMMON).union(*_READS.values())
    assert named - set(KNOWN_KEYS) == set()


def test_version_is_stated_once():
    # pyproject.toml and nhbath.__version__ state the same build identifier
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    assert project["version"] == nhbath.__version__
