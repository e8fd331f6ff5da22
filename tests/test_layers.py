"""The neural field sits on top of the library.

`encoding`, `field` and `trainer` make up the neural field. Every other
module (geometry, spatial queries, the geometric phase, ICP, the
simulator, metrics, file formats) works without one, so none of them
imports a neural-field module; only the field's own modules and the front
ends (`__init__`, `cli`, `config`) do. The scan parses `src/geonlf/*.py`
and collects each module's imports from the package, at any depth.
"""

import ast
from pathlib import Path

LIBRARY = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "geonlf").glob("*.py"))
NEURAL = {"encoding", "field", "trainer"}
FRONT = {"__init__", "cli", "config"}


def _package_imports(source: str) -> set[str]:
    """Modules of the package that `source` imports, relatively or as
    `geonlf.<module>`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith(
                    "geonlf"):
                parts = node.module.split(".")[1:]
            elif node.level > 0:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("geonlf."))
    return found


def test_only_the_field_and_front_ends_import_it():
    found = {path.stem: sorted(_package_imports(path.read_text()) & NEURAL)
             for path in LIBRARY if path.stem not in NEURAL | FRONT}
    assert {k: v for k, v in found.items() if v} == {}


def test_scan_sees_every_import_form():
    assert _package_imports(
        "from .field import render_rays\n"
        "from . import trainer, geometry\n"
        "from geonlf.encoding import EncodingConfig\n"
        "import geonlf.scene\n"
        "import numpy\n"
        "from numpy import linalg\n"
        "def f():\n"
        "    from .spatial import KdTree\n"
        "# from .cli import main in a comment\n"
        "s = 'from .config import RunConfig'\n") == {
            "field", "trainer", "geometry", "encoding", "scene", "spatial"}


def test_field_renders_without_geometry():
    """The field renders the rays and distances it is given: how a pose
    becomes rays and where samples go are the trainer's, so the field
    imports no pose or sampling module."""
    source = (LIBRARY[0].parent / "field.py").read_text()
    assert _package_imports(source) <= {"encoding", "errors", "spatial"}
