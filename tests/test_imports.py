"""Every module-level import in the package is used, and the trusted modules import no untrusted code.

No linter runs over the sources, so an import left behind when the code that
read it was deleted would go unseen; this test parses each module with `ast`.

`replay` trusts the word, slope and presentation modules.  They must never
reach the script builders, the certificate code, the CLI or the normal-form
oracle, at module level or inside a function, so the fence below reads every
import statement of theirs.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cable_order"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of `source` that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nprint(os, d)\n"
    assert unused_imports(source) == ["b"]


def test_the_package_has_modules():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


FENCED = ("words.py", "slopes.py", "presentations.py")
UNTRUSTED = {"derivations", "obstruction", "cli", "normal_form"}


def package_imports(source: str) -> set[str]:
    """The package modules that `source` imports anywhere, in a function too, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("cable_order")):
            module = (node.module or "").removeprefix("cable_order").lstrip(".")
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("cable_order.")}
    return found


def test_the_fence_finds_every_form_of_import():
    source = (
        "from .slopes import Slope\n"
        "import cable_order.cli\n"
        "def f():\n"
        "    from . import derivations, words\n"
        "    from cable_order.normal_form import normal_form\n"
        "    from cable_order import obstruction\n"
        "    import json\n"
    )
    assert package_imports(source) == {"slopes", "cli", "derivations", "words", "normal_form", "obstruction"}


@pytest.mark.parametrize("name", FENCED)
def test_trusted_modules_import_no_untrusted_code(name):
    assert package_imports((PACKAGE / name).read_text()) & UNTRUSTED == set()
