"""Keep code that only the tests use out of the package.

Every top-level function, class and module constant of a module under
src/psf_matfunc/ must be read somewhere in the package other than in its own
definition, or be named by the benchmark under perfbench/. So must every
annotated field and every property of a top-level class, read as an
attribute. Fixtures and references that only tests need live in
tests/helpers.py. No module reads an environment variable.
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


def _trees(directory: Path) -> dict:
    """The parsed modules of a directory, apart from its __init__."""
    return {p: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(directory.glob("*.py")) if p.name != "__init__.py"}


def _fields(cls: ast.ClassDef):
    """Names of the annotated fields and the properties of a class."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list):
            yield node.name


def unreferenced_names() -> list[str]:
    trees = _trees(PACKAGE)
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


def unread_fields() -> list[str]:
    """Fields and properties that neither the package nor the benchmark
    reads as an attribute (a word in a comment does not count)."""
    trees = _trees(PACKAGE)
    readers = [*trees.values(), *_trees(ROOT / "perfbench").values()]
    read = {n.attr for t in readers for n in ast.walk(t)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{path.stem}.{cls.name}.{name}"
            for path, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name in _fields(cls) if name not in read]


def test_every_package_name_has_a_consumer():
    assert unreferenced_names() == []


def test_every_class_field_has_a_reader():
    assert unread_fields() == []


def environment_reads() -> list[str]:
    """Modules that read an environment variable through `os`."""
    return [f"{path.stem}:{n.lineno}"
            for path, tree in _trees(PACKAGE).items() for n in ast.walk(tree)
            if (isinstance(n, ast.Attribute) and n.attr in ("environ", "getenv")
                and isinstance(n.value, ast.Name) and n.value.id == "os")
            or (isinstance(n, ast.ImportFrom) and n.module == "os"
                and any(a.name in ("environ", "getenv") for a in n.names))]


def test_no_module_reads_the_environment():
    """A run is set by its flags alone, never by an environment knob."""
    assert environment_reads() == []


def test_package_root_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
