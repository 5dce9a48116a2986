"""The package's public surface."""

import ast
import inspect
import pathlib
import re

import mckaykit

PACKAGE = pathlib.Path(mckaykit.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def test_all_lists_exactly_the_bound_public_names():
    bound = {name for name, obj in vars(mckaykit).items()
             if not name.startswith("_") and not inspect.ismodule(obj)}
    assert set(mckaykit.__all__) == bound
    assert len(mckaykit.__all__) == len(bound)


def cached_functions():
    """``module.qualname`` of every function in the package decorated with
    ``functools.lru_cache``, ``cache`` or ``cached_property``."""
    found = []

    def is_cache(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(dec, "attr", getattr(dec, "id", None)) in CACHE_DECORATORS

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = scope + [child.name]
                if (not isinstance(child, ast.ClassDef)
                        and any(map(is_cache, child.decorator_list))):
                    found.append(".".join(name))
                visit(child, name)
            else:
                visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return found


def test_readme_cache_table_lists_exactly_the_caches():
    section = README.read_text().split("\n## Caches\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \|", section, re.M)
    assert len(rows) == len(set(rows))
    assert sorted(rows) == sorted(cached_functions())
