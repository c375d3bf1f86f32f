"""Every name a module of the package, of ``tools/`` or of ``tests/`` imports is used in it.

No linter is part of the toolchain, so this is an ``ast`` scan: a name bound
by an import counts as used when the module reads it (``ast.Name``, an
attribute's base included) or lists it in ``__all__``.  It catches the
imports a deletion leaves behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tools").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by ``import`` or ``from ... import`` and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(source) == ["line 2: os", "line 3: d"]
    assert unused_imports(source + "os.sep\nd()\n") == []


def test_no_module_imports_a_name_it_never_uses():
    assert len(MODULES) > 20
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in MODULES}
    assert not {path: names for path, names in found.items() if names}
