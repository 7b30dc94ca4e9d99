"""The package API: ``invdiff.__all__`` is exactly what the package binds.

The README promises a docstring on every exported function and class, and
no module reaches into another's private names.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import invdiff
import invdiff.cli


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
    "support_set": (1, lambda v: invdiff.SigmaGrid((0.0, 2.0, 4.0), (v,))),
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


_PARAMS = dict(kappa_a=1e-6, kappa_d=1e-3, diffusion=1e-10, horizon=3600.0, pixel_pitch=1e-5)
_P = invdiff.PhysicalParams(**_PARAMS)
_SOURCE = dict(m=1, n=1, rate=1.0, t_start=0.0, t_stop=10.0)
_EMPTY = invdiff.find_sources(np.zeros((4, 4)))


def _fista_with_norm(v):
    obs = invdiff.Observation.plain(np.zeros((8, 8)))
    cfg = invdiff.SolverConfig(lam=0.1, max_iters=1)
    invdiff.fista_solve(obs, invdiff.build_kernel_bank(_GRID), cfg, op_norm=v)


def _place_sources(v):
    cfg = dataclasses.replace(invdiff.default_config(), source_min_separation=v)
    invdiff.cli._place_sources(cfg, np.random.default_rng(0))


# "function.argument" -> (strictly positive, a valid value, call with a value)
_REALS = {
    **{
        f"PhysicalParams.{name}": (
            name not in ("kappa_a", "kappa_d"),
            _PARAMS[name],
            lambda v, name=name: invdiff.PhysicalParams(**dict(_PARAMS, **{name: v})),
        )
        for name in _PARAMS
    },
    **{
        f"Source.{name}": (
            False,
            _SOURCE[name] + 1.0,
            lambda v, name=name: invdiff.Source(**dict(_SOURCE, **{name: v})),
        )
        for name in ("rate", "t_start", "t_stop")
    },
    "SolverConfig.lam": (False, 0.1, lambda v: invdiff.SolverConfig(lam=v)),
    "SolverConfig.gap_tol": (False, 1e-3, lambda v: invdiff.SolverConfig(lam=0.1, gap_tol=v)),
    "Observation.mask": (
        False,
        1.0,
        lambda v: invdiff.Observation(np.ones((2, 2)), np.ones((2, 2)), np.full((2, 2), v)),
    ),
    "tau_of_sigma_px.sigma_px": (False, 3.0, _P.tau_of_sigma_px),
    "omega.sigma": (False, 1.0, lambda v: invdiff.omega(v, 0)),
    "kernel_radius.sigma_hi": (False, 2.0, lambda v: invdiff.kernel_radius(v, 0.5)),
    "kernel_radius.psf_sigma": (False, 0.5, lambda v: invdiff.kernel_radius(2.0, v)),
    "build_kernel_bank.psf_sigma": (False, 0.5, lambda v: invdiff.build_kernel_bank(_GRID, v)),
    "phi_norm_sq.tau_floor": (True, 1.0, lambda v: invdiff.phi_norm_sq(_P, v)),
    "truncation_order.eps": (True, 1e-6, lambda v: invdiff.truncation_order(v, _P, 1.0)),
    "truncation_order.norm_sq": (False, 1.0, lambda v: invdiff.truncation_order(1e-6, _P, v)),
    "phi_general.eps": (True, 1e-6, lambda v: invdiff.phi_general(_P, 64, v)),
    "sensor_model.noise_sigma": (
        False, 0.01, lambda v: invdiff.sensor_model(np.ones((4, 4)), v, 0, 0)
    ),
    "prox_group_nonneg.threshold": (
        False, 1.0, lambda v: invdiff.prox_group_nonneg(np.zeros((1, 1, 2)), v, [True, True])
    ),
    "fista_solve.op_norm": (False, 1.0, _fista_with_norm),
    "find_sources.rel_threshold": (
        False, 0.5, lambda v: invdiff.find_sources(np.zeros((4, 4)), rel_threshold=v)
    ),
    "find_sources.min_separation": (
        False, 4.0, lambda v: invdiff.find_sources(np.zeros((4, 4)), min_separation=v)
    ),
    "match_and_score.radius": (
        False, 4.0, lambda v: invdiff.match_and_score(_EMPTY, np.empty((0, 2)), v)
    ),
    "cli.source_min_separation": (False, 10.0, _place_sources),
}


@pytest.mark.parametrize("key", sorted(_REALS))
def test_real_arguments_reject_non_finite_out_of_range_and_non_numbers(key):
    # a string reached NumPy as an unnamed TypeError, and a NaN minimum
    # separation turned suppression off; NumPy scalars stay accepted
    strict, good, call = _REALS[key]
    name = key.rsplit(".", 1)[1]
    for bad in (np.nan, np.inf, -np.inf, -1.0, "1") + ((0.0,) if strict else ()):
        with pytest.raises(ValueError, match=name):
            call(bad)
    call(np.float64(good))
