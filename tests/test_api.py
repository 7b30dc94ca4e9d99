"""The package API: ``invdiff.__all__`` is exactly what the package binds.

The README promises a docstring on every exported function and class.
"""

import inspect

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
