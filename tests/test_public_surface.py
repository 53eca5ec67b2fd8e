"""Every public function and class of ``qbde`` has a caller outside the tests,
and every module, test and demo uses what it imports.

A public name is a module-level ``def`` or ``class`` in ``src/qbde`` whose
name has no leading underscore.  It counts as used when it appears as a
name, an attribute or an import in a module of the package, in a demo or
in the acceptance tests, or as a string in the benchmark's ``run.py``,
whose trace points name the functions they wrap.  A name only the unit
tests reach is a wrapper to fold into the code or the tests.  An import
kept on purpose, such as a re-export, says so with ``# noqa: F401``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in (ROOT / "src" / "qbde").glob("*.py")
                 if path.name != "__init__.py")


def public_defs(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def string_constants(tree: ast.AST) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    callers = [*MODULES, *sorted((ROOT / "demos").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*(referenced(parse(path)) for path in callers))
    used |= string_constants(parse(ROOT / "bench" / "run.py"))
    unused = [f"{path.stem}.{name}" for path in MODULES
              for name in sorted(public_defs(parse(path))) if name not in used]
    assert unused == []


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` of each name the file imports and never reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    paths = [*MODULES, ROOT / "src" / "qbde" / "__init__.py",
             *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py"))]
    assert [entry for path in paths for entry in unused_imports(path)] == []
