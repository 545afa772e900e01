"""Static checks of the package source: every import and every module-level
name is used (a public one may instead be exported), no module imports
another's private names, the public surface names each object once, and
each config key is declared once."""
import ast
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


def _unreferenced_names(private):
    """Module-level names, private or public, that no module of the package
    reads; a public name listed in `nhbath.__all__` counts as read."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    used = set(nhbath.__all__).union(*map(_references, trees.values()))
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
    # one KNOWN_KEYS row per key: the config has a field for each row and the
    # experiment table names no key without one
    assert [f.name for f in fields(ExperimentConfig)] == list(KNOWN_KEYS)
    named = set(_COMMON).union(*_READS.values())
    assert named - set(KNOWN_KEYS) == set()
