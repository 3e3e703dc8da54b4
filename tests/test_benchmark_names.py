"""The package names that the benchmark's own code reads must keep existing.

The benchmark runs each commit's package through ``benchmarks/``, so a name
deleted from ``vasso_opt`` that those files still import, read or delete
breaks the benchmark rather than any test here.  The files are parsed, never
imported or run.  ``benchmarks/tracer.py`` is left out: its boundary names
are strings that record a missing name rather than fail on it.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).parents[1] / "benchmarks"
FILES = ("checks.py", "child.py", "micro.py", "test_checks.py")


def _names_read(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each package name the tree imports or reads off a module.

    A read is ``alias.name`` on a module bound by an import, or the name
    string of a ``setattr``/``delattr`` call on one.
    """
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("vasso_opt."):
                    names.add(tuple(a.name.rsplit(".", 1)))
                    if a.asname:
                        aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vasso_opt"):
            for a in node.names:
                names.add((node.module, a.name))
                if node.module == "vasso_opt":
                    aliases[a.asname or a.name] = f"vasso_opt.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            names.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in \
                ("setattr", "delattr") and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Name) and node.args[0].id in aliases \
                and isinstance(node.args[1], ast.Constant):
            names.add((aliases[node.args[0].id], node.args[1].value))
    return names


def _read(name: str) -> set[tuple[str, str]]:
    return _names_read(ast.parse((BENCHMARKS / name).read_text()))


def _exists(module: str, name: str) -> bool:
    """Whether ``module`` has ``name``: an attribute, or a submodule not yet imported."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or hasattr(mod, "__path__") and \
        importlib.util.find_spec(f"{module}.{name}") is not None


@pytest.mark.parametrize("name", FILES)
def test_every_package_name_the_benchmark_reads_exists(name):
    names = _read(name)
    assert names, f"no vasso_opt name found in benchmarks/{name}"
    gone = sorted(f"{module}.{attr}" for module, attr in names
                  if not _exists(module, attr))
    assert gone == []


def test_the_guarded_names_include_those_kept_only_for_the_benchmark():
    names = set().union(*map(_read, FILES))
    assert {("vasso_opt.harness", n) for n in
            ("init_x", "build_objective", "run_seed", "MetricsRow", "norm2")} <= names
    assert ("vasso_opt.optimizers", "sgd_step") in names   # deleted by name
    assert ("vasso_opt.cli", "main") in names
