"""The library runs its threads on one pool.

`spatial.pool_map` owns the program's only `ThreadPoolExecutor`: a second
pool would put more threads than CPUs to work, and a task that maps on its
own pool is run inline only by `pool_map`'s guard. The pool is also the
only parallelism: no call passes `workers=`, which asks scipy for threads
of its own. The scans parse `src/geonlf/*.py` and count calls.
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


def _worker_keywords(source: str) -> int:
    return sum(keyword.arg == "workers"
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Call) for keyword in node.keywords)


def test_no_call_asks_for_workers():
    found = {path.name: n for path in LIBRARY
             if (n := _worker_keywords(path.read_text()))}
    assert found == {}


def test_worker_scan_sees_every_call_form():
    assert _worker_keywords(
        "tree.query(q, k=2, workers=2)\n"
        "f(workers=n)(x)\n"
        "g(x, max_workers=2)\n"
        "# tree.query(q, workers=2) in a comment\n"
        "s = 'query(q, workers=2)'\n") == 2
