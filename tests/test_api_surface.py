"""Every public name of the library has a caller outside the tests.

The scan parses `src/geonlf/*.py` and collects each public top-level
function or class and each public method. A name passes when it is used
somewhere in `src/`, `scripts/` or perfbench's non-test modules: as a
name, an attribute, an import alias or a string constant (perfbench names
its trace targets in strings such as "KdTree.query_many"). Anything only
the tests reach should move to `tests/oracles.py` or go.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "geonlf").glob("*.py"))
CALLERS = (LIBRARY + sorted((ROOT / "scripts").glob("*.py"))
           + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                    if not p.name.startswith("test_")))

# Public names that no module calls, each with the reason it stays.
ALLOWED = {
    "FieldParams.load": "reads the documented field.gnlf checkpoint format",
}


def _public_definitions(path: Path):
    """(qualified name, leaf name) of the public functions, classes and
    methods that `path` defines at module or class level."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _used_names(path: Path) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def test_every_public_name_has_a_caller():
    used = set().union(*map(_used_names, CALLERS))
    unused = [f"{path.name}: {qualified}"
              for path in LIBRARY
              for qualified, leaf in _public_definitions(path)
              if leaf not in used and qualified not in ALLOWED]
    assert not unused, "public names only tests reach:\n" + "\n".join(unused)


def test_allowlist_is_current():
    defined = {q for path in LIBRARY for q, _ in _public_definitions(path)}
    assert set(ALLOWED) <= defined
