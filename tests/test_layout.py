"""Keep code that only the tests use out of the package.

Every top-level function, class and module constant of a module under
src/psf_matfunc/ must be read somewhere in the package other than in its own
definition, or be named by the benchmark under perfbench/. Fixtures and
references that only tests need live in tests/helpers.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "psf_matfunc"


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _reads(tree: ast.Module, skip: set) -> set:
    """Names read as a variable or an attribute outside the nodes in skip."""
    out = set()
    for n in ast.walk(tree):
        if n in skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unreferenced_names() -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    bench = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    reads_elsewhere = {p: set().union(*(_reads(t, set()) for q, t in trees.items() if q != p))
                       for p in trees}
    missing = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if name in reads_elsewhere[path] or name in _reads(tree, set(ast.walk(node))):
                continue
            if not re.search(rf"\b{re.escape(name)}\b", bench):
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_package_name_has_a_consumer():
    assert unreferenced_names() == []


def test_package_root_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
