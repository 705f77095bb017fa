"""The package root is lazy, and the linter's import graph is stdlib-only.

``import repro`` and ``import repro.lintkit`` must load neither NumPy nor
the simulator (each check runs in a fresh interpreter, since this test
process has long imported both).  Every public name still resolves
through the root to the object its submodule defines, and the lint
program index resolves ``repro.<name>`` through the lazy table to the
definition an eager ``from .sub import name`` root would give it.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lintkit.engine import iter_python_files, load_module
from repro.lintkit.modgraph import ModuleInfo, ProgramIndex

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Modules the lint path and a bare ``import repro`` must not load.
_HEAVY = ("numpy", "repro.cmpsim", "repro.core", "repro.gpm", "repro.pic")


def _loaded_after(statement: str) -> list[str]:
    """Heavy modules in ``sys.modules`` after ``statement``, run in a
    fresh interpreter on this checkout's source."""
    script = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps(sorted(m for m in sys.modules "
        f"if m.split('.')[0] == 'numpy' or m.startswith({_HEAVY[1:]!r}))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("statement", ["import repro", "import repro.lintkit"])
def test_import_loads_no_numpy_and_no_simulator(statement):
    assert _loaded_after(statement) == []


def test_first_access_imports_the_submodule():
    loaded = _loaded_after("import repro\nrepro.CPMScheme")
    assert "numpy" in loaded
    assert "repro.core.cpm" in loaded


def test_every_export_resolves_to_its_submodules_object():
    assert sorted(repro._EXPORTS) == sorted(repro.__all__)
    for name in repro.__all__:
        submodule = importlib.import_module(repro._EXPORTS[name], "repro")
        assert getattr(repro, name) is getattr(submodule, name), name
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(repro.__all__)
    assert set(repro.__all__) <= set(dir(repro))
    assert repro.__version__


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.Nope  # noqa: B018
    from repro import units  # a submodule still imports through the root

    assert units.bips(2e9, 1.0) == 2.0


def _eager_root(lazy: ModuleInfo) -> ModuleInfo:
    """The root as an eager ``from .sub import name`` module."""
    source = "\n".join(
        f"from {submodule} import {name}"
        for name, submodule in repro._EXPORTS.items()
    )
    return ModuleInfo(lazy.path, source, ast.parse(source))


def test_program_index_resolves_through_the_lazy_table():
    modules = [
        load_module(path)
        for path in iter_python_files(
            [REPO_ROOT / "src", REPO_ROOT / "examples", REPO_ROOT / "benchmarks"]
        )
    ]
    (root,) = [m for m in modules if m.name == "repro" and m.is_package_init]
    assert sorted(root.lazy_exports) == sorted(repro.__all__)
    lazy = ProgramIndex.build(modules)
    eager = ProgramIndex.build(
        [_eager_root(root) if m is root else m for m in modules]
    )
    for name in repro.__all__:
        resolved = lazy.resolve(f"repro.{name}")
        assert resolved == eager.resolve(f"repro.{name}"), name
        assert resolved.startswith("repro.") and resolved != f"repro.{name}"
    assert lazy.resolve("repro.CPMScheme") in lazy.classes
    assert lazy.resolve("repro.run_cpm") in lazy.functions
