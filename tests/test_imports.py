"""No module of the package imports a name it does not use.

No linter is part of the toolchain, so this is checked with the standard
library: a name bound by an import statement must be read somewhere else
in the same module.  __init__.py is left out, since it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "src" / "lieconformal").glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            # `import a.b` binds a; `import a.b as c` and `from a import b as c` bind c
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from collections.abc import Callable\nimport os.path\nfrom math import comb\nprint(comb(2, 1))\n"
    assert _unused_imports(source) == ["Callable", "os"]
