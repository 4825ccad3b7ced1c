"""The package's public names and the hygiene of its modules."""

import ast
from pathlib import Path

import chronolint

PACKAGE = Path(chronolint.__file__).parent


def test_every_exported_name_resolves():
    assert [name for name in chronolint.__all__ if not hasattr(chronolint, name)] == []
    assert len(set(chronolint.__all__)) == len(chronolint.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them, so it is left out.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []
