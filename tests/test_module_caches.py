"""Process-lifetime memos in the package are few and reviewed.

A `functools.cache` or `lru_cache` applied outside a function body lives as
long as the process: every caller shares it, one test can feed the next, and
it keeps what it holds alive.  So does a hand-rolled memo, a module-level
dict that a function fills in.  An `ast` scan of every module under
`src/pillowcase` refuses either unless its site is in `MODULE_CACHES_ALLOWED`
with the reason it is safe: "module:function" for a decorated function, and
"module:NAME" for a name bound at module level to a dict display or `dict()`
that a function of the same module assigns into by subscript (a chained
target such as `built = _MEMO[d] = ...` included).  A cache built inside a
function body (as `oracle.image_table_check` does for one call) is dropped
with the call and is not a module-level site; nor is a module dict that
functions only read.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pillowcase"
CACHE_NAMES = {"cache", "lru_cache"}
# "module:function" -> why a memo that lives with the process is safe there.
MODULE_CACHES_ALLOWED = {
    "qseries:_divisor_table": "one entry keyed by (trunc, sigma1): a patched "
    "sigma1 is a new key, and it keeps only the last divisor table",
    "orbi:_CENSUS": "one census per degree, stored beside the enumerator, "
    "classifier and marking permutations that built it: patching or wrapping "
    "any of the three rebuilds the degree, never reading an old census",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_cache_sites(path: Path):
    """Yield (site, line) for each functools cache use outside a function body
    and each subscript write, inside a function, into a module-level dict."""
    module = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    functools_names, cache_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            functools_names |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            cache_names |= {a.asname or a.name for a in node.names if a.name in CACHE_NAMES}

    def is_cache(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in cache_names
        return (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in functools_names
        )

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                # Decorators run where the def stands; the body runs per call.
                for decorator in child.decorator_list:
                    for sub in ast.walk(decorator):
                        if is_cache(sub):
                            yield f"{module}:{scope}{child.name}", sub.lineno
                continue
            if is_cache(child):
                yield f"{module}:{scope.rstrip('.') or '<module>'}", child.lineno
            inner = f"{scope}{child.name}." if isinstance(child, ast.ClassDef) else scope
            yield from visit(child, inner)

    yield from visit(tree, "")

    module_dicts = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(node.value, ast.Dict)
            or isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "dict"
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            module_dicts |= {t.id for t in targets if isinstance(t, ast.Name)}
    inside_functions = {
        node for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS) for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if (
            node in inside_functions
            and isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_dicts
        ):
            yield f"{module}:{node.value.id}", node.lineno


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_level_caches_are_allowed_sites(module):
    sites = list(_module_cache_sites(PACKAGE / f"{module}.py"))
    assert [(site, line) for site, line in sites if site not in MODULE_CACHES_ALLOWED] == []


def test_each_allowed_cache_site_is_still_one():
    # A stale entry would let a later cache on that function through unreviewed.
    sites = {site for module in MODULES for site, _ in _module_cache_sites(PACKAGE / f"{module}.py")}
    assert set(MODULE_CACHES_ALLOWED) <= sites


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from functools import cache\n@cache\ndef f(x): pass\n", ["m:f"]),
        ("from functools import lru_cache\n@lru_cache(maxsize=1)\ndef f(x): pass\n", ["m:f"]),
        ("import functools\n@functools.lru_cache\ndef f(x): pass\n", ["m:f"]),
        ("from functools import cache as c\ng = c(len)\n", ["m:<module>"]),
        ("from functools import cache\nclass K:\n    @cache\n    def f(self): pass\n", ["m:K.f"]),
        ("from functools import cache\nclass K:\n    g = cache(len)\n", ["m:K"]),
        ("from functools import cache\ndef f():\n    g = cache(len)\n    @cache\n    def h(): pass\n", []),
        ("from functools import wraps\n@wraps(len)\ndef f(): pass\n", []),
        ("_M = {}\ndef f(d):\n    _M[d] = d\n", ["m:_M"]),
        ("_M: dict = dict()\ndef f(d):\n    b = _M[d] = d\n    return b\n", ["m:_M"]),
        ("_M = {1: 2}\ndef f(d):\n    return _M[d]\n", []),
        ("def f(d):\n    m = {}\n    m[d] = d\n    return m\n", []),
    ],
)
def test_the_scan_finds_module_level_caches(tmp_path, source, expected):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert [site for site, _ in _module_cache_sites(path)] == expected
