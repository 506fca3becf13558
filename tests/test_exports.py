"""Every name a module exports in __all__ resolves, and has a user outside the tests;
every name a module imports is used.

A removal cannot leave a dangling export or import, and a capability that only
its own tests call does not stay in the public surface.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ["renyiqnn", "renyiqnn.models", "renyiqnn.plateau", "renyiqnn.swaptest", "renyiqnn.training"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def names_read_in_src() -> set[str]:
    """Every name src/renyiqnn reads, bare or as an attribute.

    Definitions, assignments, import lines and the strings of __all__ are not
    reads, so a name counts only where some code uses it.
    """
    used = set()
    for path in (ROOT / "src" / "renyiqnn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def readme_examples() -> list[str]:
    """The fenced code blocks of README.md; a name in its prose is not a use."""
    return re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


# Exported for the reader of the paper, not for a command: both give the
# closed forms of the paper's Lemma 1, which acceptance criterion 11 checks.
PAPER_REFERENCE = {
    "lemma1_bounds": "the two gradient-variance expressions of Lemma 1",
    "haar_gradient_moment": "the Haar second moment that Lemma 1 bounds",
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used_outside_the_tests(module):
    outside = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))] + readme_examples()
    read = names_read_in_src()
    unused = [
        name
        for name in importlib.import_module(module).__all__
        if name not in read
        and name not in PAPER_REFERENCE
        and not any(re.search(rf"\b{name}\b", text) for text in outside)
    ]
    assert unused == []


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names the module at `path` imports and never loads; a string of its __all__ counts as a load."""
    tree = ast.parse(path.read_text())
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return sorted(imported - loaded)


def test_every_imported_name_is_used():
    paths = [p for d in ("src/renyiqnn", "tests", "tools") for p in sorted((ROOT / d).glob("*.py"))]
    unused = {str(p.relative_to(ROOT)): names for p in paths if (names := unused_imports(p))}
    assert unused == {}
