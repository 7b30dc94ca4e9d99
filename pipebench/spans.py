"""Spans recorded around calls into each invdiff layer, and the per-layer metrics.

Tracing lives in the benchmark, not the program: ``instrumented`` rebinds each
public function listed in ``TARGETS`` to a timing wrapper in every invdiff
module that holds it (``forward`` is reached through ``invdiff.operator``,
``invdiff.solver``, ``invdiff.cli`` and the package itself), and puts the
originals back on exit. ``mathcore`` and ``_accel`` are only reached inside
``physics``, ``operator`` and ``solver``, so their time is inside those spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (layer, public name on the invdiff package); "A.b" is attribute b of A
TARGETS = (
    ("physics", "phi_general"),
    ("physics", "synth_psdr"),
    ("physics", "sensor_model"),
    ("operator", "build_kernel_bank"),
    ("operator", "KernelBank.plan"),
    ("operator", "forward"),
    ("operator", "adjoint"),
    ("operator", "op_norm_estimate"),
    ("solver", "fista_solve"),
    ("solver", "prox_group_nonneg"),
    ("detect", "aggregate_map"),
    ("detect", "find_sources"),
    ("detect", "match_and_score"),
    ("tensorio", "write_tensor"),
    ("tensorio", "read_tensor"),
    ("config", "parse_config"),
    ("cli", "cli.main"),
)

NO_PARENT = -1
NO_PASS = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, or NO_PARENT
    pass_id: int  # traced pass the span belongs to, or NO_PASS

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = NO_PASS
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def _resolve(inv, dotted: str):
    owner = inv
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


@contextlib.contextmanager
def instrumented(inv, tracer: Tracer):
    """Rebind every target to a traced wrapper; restore the originals on exit."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == inv.__name__ or name.startswith(inv.__name__ + "."))
    ]
    undo = []
    try:
        for layer, dotted in TARGETS:
            owner, attr, fn = _resolve(inv, dotted)
            wrapper = tracer.wrap(f"{layer}.{attr}", fn)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, k) for m in modules for k, v in list(vars(m).items()) if v is fn]
            for site, key in sites:
                undo.append((site, key, fn))
                setattr(site, key, wrapper)
        yield
    finally:
        for site, key, fn in reversed(undo):
            setattr(site, key, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations.

    One thread's call stack nests every child inside its parent and the
    children of one span one after another, so they never overlap.
    """
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent != NO_PARENT:
            children[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, children)]


def _ancestor(spans, index: int, name: str) -> int:
    """Index of the nearest ancestor called ``name``, or NO_PARENT."""
    p = spans[index].parent
    while p != NO_PARENT and spans[p].name != name:
        p = spans[p].parent
    return p


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "operator.fft_pad_px": ("count", "lower"),
    "operator.spectrum_mb": ("MB", "lower"),
    "operator.forward_calls": ("count", "lower"),
    "operator.forward_ms": ("ms", "lower"),
    "operator.adjoint_calls": ("count", "lower"),
    "operator.adjoint_ms": ("ms", "lower"),
    "operator.op_norm_s": ("s", "lower"),
    "operator.power_iters": ("count", "lower"),
    "operator.plan_ms": ("ms", "lower"),
    "operator.build_kernel_bank_ms": ("ms", "lower"),
    "operator.solve_share": ("ratio", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.cap_hits": ("count", "lower"),
    "solver.converged_frac": ("ratio", "higher"),
    "solver.restarts": ("count", "lower"),
    "solver.iter_ms": ("ms", "lower"),
    "solver.self_ms_per_iter": ("ms", "lower"),
    "solver.prox_calls": ("count", "lower"),
    "solver.prox_ms": ("ms", "lower"),
    "physics.phi_general_ms": ("ms", "lower"),
    "physics.generations": ("count", "lower"),
    "physics.synth_psdr_ms": ("ms", "lower"),
    "physics.synth_us_per_emitter": ("us", "lower"),
    "physics.sensor_model_ms": ("ms", "lower"),
    "detect.aggregate_map_ms": ("ms", "lower"),
    "detect.find_sources_ms": ("ms", "lower"),
    "detect.match_and_score_ms": ("ms", "lower"),
    "detect.detections": ("count", "higher"),
    "detect.loc_rmse_px": ("px", "lower"),
    "tensorio.write_ms": ("ms", "lower"),
    "tensorio.read_ms": ("ms", "lower"),
    "tensorio.bytes_written": ("bytes", "lower"),
    "config.parse_ms": ("ms", "lower"),
    "cli.synth_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(spans, results, geometry, overhead_frac) -> dict:
    """Per-layer metrics from the spans and results of the traced passes.

    Times named ``*_ms`` / ``*_s`` are medians per call, except ``plan_ms``
    (plan time per pass: cold builds plus cache hits) and the per-iteration
    solver times; counts and the other per-pass figures are medians over
    passes. A layer a workload never calls reads 0.
    """
    traced = {r.scene: r for r in results if r.traced and r.ok}
    selfs = self_times(spans)
    by_pass = defaultdict(list)  # pass id -> indices of its spans
    for i, s in enumerate(spans):
        if s.pass_id in traced:
            by_pass[s.pass_id].append(i)

    def named(name, pid):
        return [i for i in by_pass[pid] if spans[i].name == name]

    def ms_per_call(name):
        return 1e3 * _median([spans[i].duration for pid in traced for i in named(name, pid)])

    def per_pass(fn):
        return _median([fn(pid, r) for pid, r in traced.items()])

    def n_calls(name):
        return per_pass(lambda pid, r: len(named(name, pid)))

    def busy(name, pid, own=False):
        return sum(selfs[i] if own else spans[i].duration for i in named(name, pid))

    def in_solver(i):
        return _ancestor(spans, i, "solver.fista_solve") != NO_PARENT

    def iter_ms(pid, r):
        """fista_solve time, less the op-norm estimate inside it, per iteration."""
        norm = sum(spans[i].duration for i in named("operator.op_norm_estimate", pid) if in_solver(i))
        return 1e3 * (busy("solver.fista_solve", pid) - norm) / r.iterations if r.iterations else 0.0

    def self_ms_per_iter(pid, r):
        return 1e3 * busy("solver.fista_solve", pid, own=True) / r.iterations if r.iterations else 0.0

    def solve_share(pid, r):
        """Operator calls made by fista_solve, plus op-norm estimates outside it, over solve_s."""
        direct = sum(
            spans[i].duration for i in by_pass[pid]
            if spans[i].name.startswith("operator.")
            and spans[spans[i].parent].name == "solver.fista_solve"
        )
        outside = sum(
            spans[i].duration for i in named("operator.op_norm_estimate", pid) if not in_solver(i)
        )
        return (direct + outside) / r.solve_s if r.solve_s else 0.0

    power = [
        sum(1 for j in named("operator.forward", pid)
            if _ancestor(spans, j, "operator.op_norm_estimate") == i)
        for pid in traced
        for i in named("operator.op_norm_estimate", pid)
    ]
    solves = sum(r.solves for r in traced.values())
    return {
        "operator.fft_pad_px": geometry["fft_pad_px"],
        "operator.spectrum_mb": geometry["spectrum_mb_computed"],
        "operator.forward_calls": n_calls("operator.forward"),
        "operator.forward_ms": ms_per_call("operator.forward"),
        "operator.adjoint_calls": n_calls("operator.adjoint"),
        "operator.adjoint_ms": ms_per_call("operator.adjoint"),
        "operator.op_norm_s": ms_per_call("operator.op_norm_estimate") / 1e3,
        "operator.power_iters": _median(power),
        "operator.plan_ms": 1e3 * per_pass(lambda pid, r: busy("operator.plan", pid)),
        "operator.build_kernel_bank_ms": ms_per_call("operator.build_kernel_bank"),
        "operator.solve_share": per_pass(solve_share),
        "solver.solve_s": per_pass(lambda pid, r: r.solve_s),
        "solver.iterations": per_pass(lambda pid, r: r.iterations),
        "solver.cap_hits": per_pass(lambda pid, r: r.cap_hits),
        "solver.converged_frac": (
            sum(r.solves - r.cap_hits for r in traced.values()) / solves if solves else 0.0
        ),
        "solver.restarts": per_pass(lambda pid, r: r.restarts),
        "solver.iter_ms": per_pass(iter_ms),
        "solver.self_ms_per_iter": per_pass(self_ms_per_iter),
        "solver.prox_calls": n_calls("solver.prox_group_nonneg"),
        "solver.prox_ms": ms_per_call("solver.prox_group_nonneg"),
        "physics.phi_general_ms": ms_per_call("physics.phi_general"),
        "physics.generations": geometry["generations"],
        "physics.synth_psdr_ms": ms_per_call("physics.synth_psdr"),
        "physics.synth_us_per_emitter": per_pass(
            lambda pid, r: 1e6 * busy("physics.synth_psdr", pid) / max(1, r.emitters)
        ),
        "physics.sensor_model_ms": ms_per_call("physics.sensor_model"),
        "detect.aggregate_map_ms": ms_per_call("detect.aggregate_map"),
        "detect.find_sources_ms": ms_per_call("detect.find_sources"),
        "detect.match_and_score_ms": ms_per_call("detect.match_and_score"),
        "detect.detections": per_pass(lambda pid, r: r.detections),
        "detect.loc_rmse_px": per_pass(lambda pid, r: r.loc_rmse_px),
        "tensorio.write_ms": ms_per_call("tensorio.write_tensor"),
        "tensorio.read_ms": ms_per_call("tensorio.read_tensor"),
        "tensorio.bytes_written": per_pass(lambda pid, r: r.bytes_written),
        "config.parse_ms": ms_per_call("config.parse_config"),
        "cli.synth_ms": ms_per_call("cli.main"),
        "trace.overhead_frac": overhead_frac,
    }
