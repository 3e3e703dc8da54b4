"""The package names that the benchmark's own code reads must keep existing.

The benchmark runs each commit's package through ``benchmarks/``, so a name
deleted from ``vasso_opt`` that those files still import, read or delete, or
a parameter renamed or dropped that they still pass, breaks the benchmark
rather than any test here.  The files are parsed, never imported or run.
``benchmarks/tracer.py`` is read apart: its boundary names are strings that
record a missing name rather than fail on it, so a test bounds that record
to the stale names it holds today.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).parents[1] / "benchmarks"
FILES = ("checks.py", "child.py", "micro.py", "test_checks.py")


def _imports(tree: ast.AST):
    """The tree's package imports: (names, modules, functions).

    ``names`` holds (module, name) for each package name imported;
    ``modules`` maps a local name to the package module bound to it, and
    ``functions`` a local name to the (module, name) imported under it.
    """
    names, modules, functions = set(), {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("vasso_opt."):
                    names.add(tuple(a.name.rsplit(".", 1)))
                    if a.asname:
                        modules[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vasso_opt"):
            for a in node.names:
                names.add((node.module, a.name))
                if node.module == "vasso_opt":
                    modules[a.asname or a.name] = f"vasso_opt.{a.name}"
                else:
                    functions[a.asname or a.name] = (node.module, a.name)
    return names, modules, functions


def _names_read(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each package name the tree imports or reads off a module.

    A read is ``alias.name`` on a module bound by an import, or the name
    string of a ``setattr``/``delattr`` call on one.
    """
    names, aliases, _ = _imports(tree)
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


def _package_calls(tree: ast.AST):
    """(call, module, name) for each call of a package name in the tree.

    That is ``alias.name(...)`` on a module bound by an import, or
    ``name(...)`` on a name imported from a package module.
    """
    _, modules, functions = _imports(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in modules:
            yield node, modules[func.value.id], func.attr
        elif isinstance(func, ast.Name) and func.id in functions:
            yield (node, *functions[func.id])


def _parse(name: str) -> ast.AST:
    return ast.parse((BENCHMARKS / name).read_text())


def _read(name: str) -> set[tuple[str, str]]:
    return _names_read(_parse(name))


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


@pytest.mark.parametrize("name", FILES)
def test_every_package_call_the_benchmark_makes_binds_to_the_callee(name):
    """Each call's positional count and keyword names fit the callee's signature."""
    calls = list(_package_calls(_parse(name)))
    assert calls, f"no vasso_opt call found in benchmarks/{name}"
    unbound = []
    for call, module, attr in calls:
        signature = inspect.signature(getattr(importlib.import_module(module), attr))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as e:
            unbound.append(f"benchmarks/{name}:{call.lineno}: {module}.{attr}: {e}")
    assert unbound == []


def test_the_bound_calls_include_keywords_and_each_kind_of_import():
    calls = [(module, attr, {k.arg for k in call.keywords}) for name in FILES
             for call, module, attr in _package_calls(_parse(name))]
    assert ("vasso_opt.harness", "run_seed", {"keep_final_x"}) in calls
    assert ("vasso_opt.core", "Schedule", set()) in calls   # imported by name
    assert ("vasso_opt.cli", "main", set()) in calls   # a module imported ``as``


# boundaries that tracer.py still lists though the package deleted them
STALE_BOUNDARIES = {"harness.final_loss_metric", "optimizers.evasso_step",
                    "optimizers.samdb_step"}


def _boundaries() -> list[str]:
    """The ``module.qualname`` of each entry of tracer.py's ``BOUNDARIES``."""
    for node in ast.walk(_parse("tracer.py")):
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["BOUNDARIES"]:
            return [f"{module}.{qual}" for module, quals in
                    ast.literal_eval(node.value).items() for qual in quals]
    raise AssertionError("no BOUNDARIES in benchmarks/tracer.py")


def _resolves(boundary: str) -> bool:
    """Whether the package defines the boundary; a method must be defined by
    a package class, not inherited from ``object`` or ``type``."""
    module, *owner_path, attr = boundary.split(".")
    owner = importlib.import_module(f"vasso_opt.{module}")
    for part in owner_path:
        owner = getattr(owner, part, None)
    if not owner_path:
        return hasattr(owner, attr)
    return owner is not None and any(
        attr in vars(c) for c in inspect.getmro(owner) if c.__module__.startswith("vasso_opt"))


def test_every_tracer_boundary_resolves_but_the_known_stale_ones():
    boundaries = _boundaries()
    missing = {b for b in boundaries if not _resolves(b)}
    assert missing <= STALE_BOUNDARIES
    assert len(boundaries) - len(missing) >= 49
