import ast
from pathlib import Path

import dualstyle

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    for name in dualstyle.__all__:
        assert getattr(dualstyle, name) is not None, name


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (``__future__`` excepted)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    unused = [hit for path in files for hit in _unused_imports(path)]
    assert unused == []


def _autodiff_reads(path: Path) -> set[str]:
    """Names a module reads from ``autodiff``, as ``ad.name`` or by
    ``from .autodiff import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "autodiff":
                names.update(alias.name for alias in node.names)
            elif node.module is None:
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "autodiff")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_every_autodiff_function_has_a_caller_in_the_package():
    package = ROOT / "src" / "dualstyle"
    tree = ast.parse((package / "autodiff.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    read = set().union(*(_autodiff_reads(path) for path in package.glob("*.py")
                         if path.name != "autodiff.py"))
    # grad_check is the tests' reference check, not a pipeline op
    assert sorted(public - read - {"grad_check"}) == []
