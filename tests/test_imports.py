"""The package's modules form a chain, each importing only those before
it, and the verifier, the trusted kernel, imports only core."""

import ast
from pathlib import Path

import pytest

import resflat

SOURCE = Path(resflat.__file__).parent

# core <- graphs <- decide <- surfaces <- cli, and the kernel, verify, on
# core alone: every module may import those before it.
ALLOWED = {
    "core": set(),
    "verify": {"core"},
    "graphs": {"core"},
    "decide": {"core", "graphs"},
    "surfaces": {"core", "graphs", "decide", "verify"},
    "cli": {"core", "verify", "graphs", "decide", "surfaces"},
}


def package_imports(module: str) -> set[str]:
    """The package modules a source file imports, at any depth in it."""
    names = []
    for node in ast.walk(ast.parse((SOURCE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["resflat", node.module])) if node.level else node.module
            names += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("resflat.")}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_each_module_imports_only_those_before_it(module):
    assert package_imports(module) <= ALLOWED[module]

