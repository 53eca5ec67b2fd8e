"""Every public function and class of ``qbde`` has a caller outside the tests.

A public name is a module-level ``def`` or ``class`` in ``src/qbde`` whose
name has no leading underscore.  It counts as used when it appears as a
name, an attribute or an import in a module of the package, in a demo or
in the acceptance tests, or as a string in the benchmark's ``run.py``,
whose trace points name the functions they wrap.  A name only the unit
tests reach is a wrapper to fold into the code or the tests."""

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
