"""Self-tests of the benchmark harness: span arithmetic, metric names, and one
reduced-size pass of each workload so that an API break shows quickly.

    python3 -m pytest -q pipebench/tests
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invdiff
import invdiff.cli
import run
import scenes
import spans

ROOT = Path(run.__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# same layers and code paths as the real workloads, on images a few ms to solve
SMALL = {
    "wide128_solve": """\
rows = 32
cols = 32
sigma_boundaries = 0, 2, 8
support_bins = 1, 2
tau_steps = 256
num_sources = 3
border_margin = 6
source_min_separation = 8
max_iters = 5
power_iters = 20
""",
    "narrow192_sweep": """\
rows = 48
cols = 48
horizon = 60
kappa_a = 2e-6
kappa_d = 0.05
sigma_boundaries = 0, 2, 4
support_bins = 1, 2
tau_steps = 256
num_sources = 4
border_margin = 8
max_iters = 5
power_iters = 20
""",
    "synth_batch": """\
kappa_d = 1e-3
sigma_boundaries = 0, 2, 5
support_bins = 1, 2
tau_steps = 256
""",
}


def small(name):
    return dataclasses.replace(scenes.WORKLOADS[name], config=SMALL[name])


def test_self_time_on_synthetic_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, spans.NO_PARENT, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a1", 1.5, 2.5, 1, 0),
        S("a2", 3.0, 3.5, 1, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("b1", 6.0, 8.0, 4, 0),
        S("b11", 6.5, 7.0, 5, 0),
    ]
    # root: 10 - (3 + 4); a: 3 - (1 + 0.5); b: 4 - 2; b1: 2 - 0.5; leaves: their durations
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.0, 0.5, 2.0, 1.5, 0.5])


def test_tracer_nests_calls_and_restores_every_binding():
    originals = {
        (mod, key): getattr(mod, key)
        for mod in (invdiff, invdiff.operator, invdiff.solver, invdiff.cli)
        for key in ("forward", "adjoint", "fista_solve")
        if hasattr(mod, key)
    }
    plan = invdiff.KernelBank.plan
    grid = invdiff.SigmaGrid(boundaries=(0.0, 1.0, 2.0), support_set=(1, 2))
    bank = invdiff.build_kernel_bank(grid)
    obs = invdiff.Observation.plain(np.random.default_rng(0).random((12, 12)))
    tracer = spans.Tracer()
    with spans.instrumented(invdiff, tracer):
        invdiff.fista_solve(obs, bank, invdiff.SolverConfig(lam=0.1, max_iters=3, power_iters=20))
    for (mod, key), fn in originals.items():
        assert getattr(mod, key) is fn
    assert invdiff.KernelBank.plan is plan
    names = [s.name for s in tracer.spans]
    assert names[0] == "solver.fista_solve"
    # calls made inside the solver went through the rebound module globals
    norm = names.index("operator.op_norm_estimate")
    assert tracer.spans[norm].parent == 0
    inner = [s for s in tracer.spans if s.name == "operator.forward" and s.parent == norm]
    assert len(inner) == 20
    assert all(s.end >= s.start for s in tracer.spans)


def test_metric_names_units_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == list(run.END_TO_END)
    assert layer == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(scenes.WORKLOADS)
    names = [n for n, _, _ in e2e] + list(layer)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [u for _, u, _ in e2e] + [u for u, _ in layer.values()]:
        assert UNIT.fullmatch(unit), unit


def test_inputs_follow_the_seed():
    work = scenes.WORKLOADS["synth_batch"]
    assert work.scene_config(7, 3) == work.scene_config(7, 3)
    assert work.scene_config(7, 3) != work.scene_config(8, 3)
    emitters = scenes.batch_emitters(scenes.scene_seed(7, 3))
    assert len({(t0, t1) for _, _, t0, t1 in emitters}) == scenes.BATCH_EMITTERS


@pytest.mark.parametrize("name", list(SMALL))
def test_reduced_pass_of_each_workload(name, tmp_path):
    work = small(name)
    setup, _, geometry = scenes.measure_setup(work.scene_config(5, 0), 1)
    assert setup[0] > 0
    kernels = scenes.reference_kernels(invdiff, work.scene_config(5, 0))
    tracer = spans.Tracer()
    results = [
        scenes.run_pass(invdiff, work, 5, i, traced, tracer, tmp_path, kernels)
        for i, traced in ((0, False), (0, True))
    ]
    assert [r.problems for r in results] == [[], []]
    assert results[0].pipeline_s > 0 and results[0].bytes_written > 0
    metrics = spans.layer_metrics(tracer.spans, results, geometry, 0.0)
    assert list(metrics) == list(spans.LAYER_METRICS)
    assert metrics["cli.synth_ms"] > 0 and metrics["operator.forward_calls"] >= 1
    if work.kind == "solve":
        assert metrics["solver.iterations"] == 5 * len(work.fracs)
        assert metrics["operator.power_iters"] == 20
        assert 0 < metrics["operator.solve_share"] <= 1
    else:
        # a weak emitter can fall under the detection threshold of its own truth tensor
        assert results[0].f1 > 0.9 and metrics["solver.iterations"] == 0


def test_check_catches_a_wrong_clean_image():
    grid = invdiff.SigmaGrid(boundaries=(0.0, 2.0, 40.0), support_set=(1, 2))
    bank = invdiff.build_kernel_bank(grid)
    psdr = np.zeros((20, 24, 2))
    psdr[3, 5, 0] = psdr[15, 20, 1] = 1.0
    clean = invdiff.forward(psdr, bank)
    from checks import check_clean

    assert check_clean(psdr, clean, bank.kernels) == []
    assert check_clean(psdr, clean * (1 + 1e-6), bank.kernels) != []


def test_main_prints_the_result_line(monkeypatch, capsys):
    # main pins thread variables and extends sys.path; undo both afterwards
    for var in run.THREAD_VARS + ("INVDIFF_THREADS",):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(scenes.WORKLOADS, "synth_batch", small("synth_batch"))
    monkeypatch.setattr(scenes, "SETUP_REPS", 1)
    for trace, names in ((0, [n for n, _, _ in run.END_TO_END]), (1, list(spans.LAYER_METRICS))):
        assert run.main(["--workload", "synth_batch", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == names


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "pipebench", tmp_path / "pipebench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "synth_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
