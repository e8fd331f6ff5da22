"""Every public name of the library has a caller outside the tests.

The scan parses `src/geonlf/*.py` and collects each public top-level
function or class and each public method. A name passes when it is used
somewhere in `src/`, `scripts/` or perfbench's non-test modules. A
top-level name may be used as a name, an attribute, an import alias or a
part of a string constant (perfbench names its trace targets in strings
such as "KdTree.query_many"). A method must be used as an attribute
(`obj.method`) or as a part of a dotted string: a local variable that
happens to share its name does not count. Anything only the tests reach
should move to `tests/oracles.py` or go.
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


def _used_names(source: str) -> tuple[set[str], set[str]]:
    """(names, attributes) that `source` uses. Names are what may count as
    a use of a top-level function or class; attributes, the subset that
    may count as a use of a method."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            (attrs if len(parts) > 1 else names).update(parts)
    return names | attrs, attrs


def test_every_public_name_has_a_caller():
    names, attrs = set(), set()
    for path in CALLERS:
        n, a = _used_names(path.read_text())
        names |= n
        attrs |= a
    unused = [f"{path.name}: {qualified}"
              for path in LIBRARY
              for qualified, leaf in _public_definitions(path)
              if leaf not in (attrs if "." in qualified else names)
              and qualified not in ALLOWED]
    assert not unused, "public names only tests reach:\n" + "\n".join(unused)


def test_local_name_is_not_a_method_use():
    names, attrs = _used_names(
        "def query(tree):\n"
        "    nearest = tree.query_many(1)\n"
        "    return nearest, 'KdTree.build'\n")
    assert {"nearest", "query_many", "build"} <= names
    assert "query_many" in attrs and "build" in attrs
    assert "nearest" not in attrs


def test_allowlist_is_current():
    defined = {q for path in LIBRARY for q, _ in _public_definitions(path)}
    assert set(ALLOWED) <= defined
