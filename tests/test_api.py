"""The package API: ``invdiff.__all__`` is exactly what the package binds.

The README promises a docstring on every exported function and class, and
no module reaches into another's private names.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import invdiff


def _public_bindings():
    return {
        name
        for name, value in vars(invdiff).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_every_exported_name_resolves_once():
    assert len(invdiff.__all__) == len(set(invdiff.__all__))
    for name in invdiff.__all__:
        assert hasattr(invdiff, name), name


def test_all_lists_every_public_binding():
    assert set(invdiff.__all__) == _public_bindings() | {"__version__"}


def _own_docstring(name, obj):
    # the class's own text: not one inherited from a base class, nor the
    # "Name(field: type, ...)" signature a dataclass fills in for a class
    # that has none
    doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
    return bool(doc and doc.strip()) and not doc.startswith(f"{name}(")


def test_exported_functions_and_classes_have_docstrings():
    missing = [
        name
        for name in invdiff.__all__
        if inspect.isroutine(obj := getattr(invdiff, name)) or inspect.isclass(obj)
        if not _own_docstring(name, obj)
    ]
    assert not missing, missing


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("invdiff"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield f"{path.name}:{node.lineno} imports {name}"


def test_no_module_imports_another_modules_private_names():
    package = Path(invdiff.__file__).parent
    found = [hit for path in sorted(package.glob("*.py")) for hit in _private_imports(path)]
    assert not found, found


_GRID = invdiff.SigmaGrid(boundaries=(0.0, 2.0, 4.0), support_set=(1, 2))
_COUNTS = {
    "max_iters": (1, lambda v: invdiff.SolverConfig(lam=0.1, max_iters=v)),
    "power_iters": (1, lambda v: invdiff.SolverConfig(lam=0.1, power_iters=v)),
    "iters": (1, lambda v: invdiff.op_norm_estimate(
        invdiff.Observation.plain(np.zeros((8, 8))), invdiff.build_kernel_bank(_GRID), v
    )),
    "quad_order": (1, lambda v: invdiff.build_kernel_bank(_GRID, quad_order=v)),
    "tau_steps": (16, lambda v: invdiff.phi_general(
        invdiff.PhysicalParams(1e-6, 1e-3, 1e-10, 3600.0, 1e-5), v
    )),
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_count_arguments_reject_non_integral_values(name):
    # a fraction was truncated (quad_order, tau_steps) or reached range()
    # as a TypeError (max_iters, power_iters, iters); NumPy integers stay
    # accepted
    lo, make = _COUNTS[name]
    for bad in (lo + 1.5, lo + 0.9, np.nan, np.inf, "20"):
        with pytest.raises(ValueError, match=name):
            make(bad)
    make(np.int64(lo))
    make(float(lo + 1))
