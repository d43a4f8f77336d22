"""Every module-level import in the package is used, and the trusted core imports only itself.

No linter runs over the sources, so an import left behind when the code that
read it was deleted would go unseen; this test parses each module with `ast`.

`replay` runs only the trusted core: the word, slope, presentation,
derivation-checker and certificate modules.  They must never reach the
proof generators, the CLI or the normal-form oracle, at module level or
inside a function, so the fence below reads every import statement of
theirs and allows only the core.  Each module of the package is on exactly
one side, so a new module has to pick one.  No core module names the memo
of lemmas and their texts that `proofs` keeps, and the certificate writer
is defined outside the core.

Every source file of the package, its tests and the benchmark must also
parse as Python 3.10, the oldest version `pyproject.toml` supports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cable_order"
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
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


SOURCES = sorted(path for tree in ("src", "tests", "bench") for path in (ROOT / tree).rglob("*.py"))


def test_the_tree_has_sources():
    assert len(SOURCES) >= len(MODULES) + 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_source_parses_as_the_oldest_supported_python(path):
    # the interpreter running the tests may be newer, and would accept syntax that 3.10 rejects
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


TRUSTED = {"words", "slopes", "presentations", "derivations", "obstruction"}
UNTRUSTED = {"proofs", "cli", "normal_form"}


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


def test_every_module_is_trusted_or_untrusted():
    assert TRUSTED.isdisjoint(UNTRUSTED)
    assert {path.stem for path in MODULES} == TRUSTED | UNTRUSTED


@pytest.mark.parametrize("name", sorted(f"{module}.py" for module in TRUSTED))
def test_trusted_modules_import_no_untrusted_code(name):
    assert package_imports((PACKAGE / name).read_text()) <= TRUSTED


@pytest.mark.parametrize("name", sorted(f"{module}.py" for module in TRUSTED))
def test_no_other_trusted_module_reads_the_lemma_memo(name):
    # the proofs fill the memo and the writer reads it, so a replay can never take a proof, or a
    # proof's text, from it; the fence keeps the core from importing proofs, and this from naming it
    assert "_memo" not in (PACKAGE / name).read_text().lower()  # _memo and _MEMOS


def defined_names(source: str) -> set[str]:
    """The functions and classes that `source` defines, at any depth."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)}


def test_the_certificate_writer_is_defined_outside_the_core():
    assert "certificate_text" in defined_names((PACKAGE / "proofs.py").read_text())
    for module in TRUSTED:
        assert "certificate_text" not in defined_names((PACKAGE / f"{module}.py").read_text()), module
