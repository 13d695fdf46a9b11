"""Guard rails on the public API: exports resolve, docs exist everywhere,
and every module is reached by code that runs."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_subpackage_all_exports_resolve():
    for module in walk_modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_every_module_has_a_docstring():
    for module in walk_modules():
        assert module.__doc__, f"{module.__name__} lacks a module docstring"


def test_every_public_class_and_function_documented():
    undocumented = []
    for module in walk_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_public_methods_of_core_classes_documented():
    from repro.core.agent import FuxiAgent
    from repro.core.appmaster import ApplicationMaster
    from repro.core.master import FuxiMaster
    from repro.core.scheduler import FuxiScheduler
    from repro.jobs.jobmaster import DagJobMaster
    from repro.jobs.taskmaster import TaskMaster
    undocumented = []
    for cls in (FuxiScheduler, FuxiMaster, FuxiAgent, ApplicationMaster,
                DagJobMaster, TaskMaster):
        for name, member in vars(cls).items():
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            if not inspect.getdoc(member):
                undocumented.append(f"{cls.__name__}.{name}")
    assert not undocumented, f"undocumented methods: {undocumented}"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """``(module, names)`` per import; ``names`` is empty for ``import x``.

    Absolute imports only: the package uses no relative ones."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, tuple(alias.name for alias in node.names)


def test_every_module_is_imported_by_code_that_runs():
    """A module no simulation, paper bench or example imports is dead
    weight: each non-``__init__`` module of ``repro`` (the ``repro.cli``
    entry point aside) must be imported by a module of ``src/``,
    ``benchmarks/`` or ``examples/`` other than its own package
    ``__init__``.  Importing a name a package ``__init__`` re-exports
    counts for the submodule that defines it."""
    sources = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    packages = {name for name, p in sources.items()
                if p.name == "__init__.py"}
    reexports = {(package, name): module
                 for package in packages
                 for module, names in _imports(sources[package])
                 for name in names}

    def defining_module(module: str, name: str) -> str:
        if f"{module}.{name}" in sources:
            return f"{module}.{name}"
        while (module, name) in reexports:
            module = reexports[(module, name)]
        return module

    reached = set()
    for folder in ("src", "benchmarks", "examples"):
        for path in (ROOT / folder).rglob("*.py"):
            own_package = (_module_name(path) if path.name == "__init__.py"
                           and path.is_relative_to(SRC) else None)
            for module, names in _imports(path):
                targets = ({defining_module(module, n) for n in names}
                           if names else {module})
                reached.update(t for t in targets
                               if t.rpartition(".")[0] != own_package)
    unreached = sorted(name for name in sources
                       if name not in packages and name != "repro.cli"
                       and name not in reached)
    assert not unreached, f"modules nothing imports: {unreached}"
