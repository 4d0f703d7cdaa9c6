"""Layering guard: the coefficient layout of cyclotomic numbers stays behind
Cyc and CycMatrix.

Only repkit, home of the flat CycMatrix kernel, may import the underscore
helpers of hypermono.algebra.cyc; every other module goes through Cyc.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CYC = "hypermono.algebra.cyc"
ALLOWED = {"hypermono.repkit"}


def _imports_from(path: Path):
    """(importing module, imported-from module, names) for every from-import
    in the file, with relative imports resolved against the file's package."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
        package = parts
    else:
        package = parts[:-1]
    module = ".".join(parts)
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            yield module, target, [alias.name for alias in node.names]


def test_only_repkit_imports_private_cyc_names():
    offenders = [
        (module, name)
        for path in sorted(SRC.rglob("*.py"))
        for module, target, names in _imports_from(path)
        if target == CYC and module not in ALLOWED
        for name in names
        if name.startswith("_")
    ]
    assert offenders == []


def test_the_guard_sees_relative_imports():
    """stonevn and weilgl import cyc relatively; the walk must resolve them."""
    seen = {
        module
        for path in SRC.rglob("*.py")
        for module, target, _ in _imports_from(path)
        if target == CYC
    }
    assert {"hypermono.stonevn", "hypermono.weilgl", "hypermono.repkit", "hypermono.algebra"} <= seen
