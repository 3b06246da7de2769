"""Every imported name in the package and the tests is used.

A stdlib ``ast`` scan: a module-level or local import counts as used when
its bound name appears as a ``Name`` anywhere in the file, which includes
the root of an attribute chain. ``__future__`` imports and ``__init__.py``
files (which import to re-export) are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for d in ("src/postasr", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b` bind the alias.
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_the_modules():
    assert any(p.name == "pipeline.py" for p in SCANNED)
    assert any(p.name == "test_pipeline.py" for p in SCANNED)


def test_scan_flags_an_unused_import():
    assert unused_imports("import json\nimport os\nos.getpid()\n") == ["line 1: json"]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("import a.b\na.b.f()\n") == []


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
