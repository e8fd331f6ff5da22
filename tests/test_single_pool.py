"""The library runs its threads on one pool.

`spatial.pool_map` owns the program's only `ThreadPoolExecutor`: a second
pool would put more threads than CPUs to work, and a task that maps on its
own pool is run inline only by `pool_map`'s guard. The scan parses
`src/geonlf/*.py` and counts the calls that construct one.
"""

import ast
from pathlib import Path

LIBRARY = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "geonlf").glob("*.py"))


def _pool_constructions(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            count += name == "ThreadPoolExecutor"
    return count


def test_one_thread_pool_in_the_library():
    found = {path.name: n for path in LIBRARY
             if (n := _pool_constructions(path.read_text()))}
    assert found == {"spatial.py": 1}


def test_scan_sees_both_call_forms():
    assert _pool_constructions(
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "a = ThreadPoolExecutor(2)\n"
        "b = cf.ThreadPoolExecutor(max_workers=2)\n"
        "# ThreadPoolExecutor( in a comment\n"
        "c = 'ThreadPoolExecutor('\n") == 2
