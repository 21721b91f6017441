"""The benchmark's own checks, at toy size.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, detail = run.run(name, seed=3, seconds=0.01, trace=trace,
                             size="toy", setup_runs=1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_REPS
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reaches_the_workload_layers():
    result, _ = run.run("paralinear_run", seed=0, seconds=0.01, trace=1,
                        size="toy")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    # 3 steps of 4 RK stages, each materializing one 32 x 32 operator
    assert metrics["solver.step.calls"] == 3
    assert metrics["paraop.materialize.calls"] == 12
    assert metrics["paraop.materialize.bytes"] == 12 * 32 * 32 * 16
    assert metrics["linalg.expm.calls"] == 0
    assert metrics["experiments.pool.threads"] == 0


def test_tracer_nests_spans_across_threads():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)

    def outer_fn(count):
        inner(0)
        with ThreadPoolExecutor(max_workers=8) as pool:
            return sum(pool.map(inner, range(count)))

    outer = tracer.wrap("outer", outer_fn)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert outer(400) == sum(range(1, 401))
    finally:
        sys.setswitchinterval(interval)
    spans, _ = tracer.take()
    (top,) = [s for s in spans if s.name == "outer"]
    inners = [s for s in spans if s.name == "inner"]
    assert len(inners) == 401 and len({s.id for s in spans}) == 402
    assert all(s.parent == top.id for s in inners)
    assert all(top.start <= s.start <= s.end <= top.end for s in inners)
    assert len({s.thread for s in inners} - {tracer.root_thread}) >= 2

    totals = self_times(spans)
    same_thread = [s for s in inners if s.thread == top.thread]
    expected = top.end - top.start - sum(s.end - s.start
                                         for s in same_thread)
    assert totals["outer"][0] == 1
    assert totals["outer"][1] == pytest.approx(expected, abs=1e-12)
    assert totals["inner"][0] == 401


def test_tracer_counters_are_thread_safe():
    tracer = Tracer()
    barrier = threading.Barrier(8)

    def hammer(_):
        barrier.wait(timeout=10)
        for _ in range(2000):
            tracer.add("hits", 1)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hammer, range(8)))
    assert tracer.take()[1]["hits"] == 16000


def test_install_rebinds_imported_names_and_uninstall_restores():
    from paraburgers import experiments, gauge, paraop
    import scipy.linalg

    originals = (paraop.materialize, scipy.linalg.expm)
    tracer = Tracer()
    assert tracer.install(run.layer_targets()) == []
    try:
        for module in (paraop, experiments, gauge):
            assert module.materialize.__wrapped__ is originals[0]
        for module in (scipy.linalg, experiments, gauge):
            assert module.expm.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert experiments.materialize is gauge.materialize is originals[0]
    assert experiments.expm is scipy.linalg.expm is originals[1]


def _perturbations(name, ref):
    """(description, output) pairs that must fail the check."""
    if name == "paralinear_run":
        state = ref["final"].copy()
        state[3] += 1e-11 * np.max(np.abs(state))
        yield "state", dict(ref, final=state)
        yield "low modes", dict(ref, low_mode_residual=2e-9)
        yield "truncated", dict(ref, samples=ref["samples"] - 1)
    elif name == "full_scan":
        cells = copy.deepcopy(ref["cells"])
        cells[0]["outcome"] = "lipschitz"
        yield "label", {"cells": cells}
        cells = copy.deepcopy(ref["cells"])
        cells[-1]["sup_growth"] *= 1.0 + 1e-7
        yield "growth", {"cells": cells}
        yield "missing cell", {"cells": ref["cells"][:-1]}
    else:
        flipped = "bounded" if ref["verdict"] != "bounded" else "violated"
        yield "verdict", dict(ref, verdict=flipped)
        yield "size", dict(ref, ensemble_size=ref["ensemble_size"] + 1)
        yield "max ratio", dict(ref, max_ratio=ref["max_ratio"] * (1 + 1e-9))
        yield "constant", dict(ref, fitted_constant=ref["fitted_constant"]
                               * (1 + 1e-9) + 1e-300)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_perturbed_output_fails_the_check(name):
    check = workloads.WORKLOADS[name].problems
    for ref in workloads.load_references(name, 0):
        assert check(copy.deepcopy(ref), ref) == []
        for what, out in _perturbations(name, ref):
            assert check(out, ref), f"{what} perturbation passed the check"


def test_tolerances_admit_round_off():
    (ref,) = workloads.load_references("conjugation_study", 0)
    close = dict(ref, max_ratio=ref["max_ratio"] * (1 + 1e-13))
    assert workloads.ConjugationStudy.problems(close, ref) == []


def test_a_failing_repetition_is_counted(monkeypatch):
    real = workloads.ParalinearRun.repeat

    def drifting(self, i):
        out = real(self, i)
        if i > 0:
            out["final"] = out["final"] * (1.0 + 1e-9)
        return out

    monkeypatch.setattr(workloads.ParalinearRun, "repeat", drifting)
    result, detail = run.run("paralinear_run", seed=0, seconds=0.01,
                             trace=0, size="toy", setup_runs=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1
    assert all("final state" in f for f in detail["failures"])


def test_runs_pin_one_core_and_one_blas_thread():
    probe = ("import sys; sys.path[:0] = sys.argv[1:]; import run; "
             "run.pin_to_one_core(); import numpy, scipy, envinfo, os; "
             "print(len(os.sched_getaffinity(0)), "
             "envinfo._blas(numpy)['threads'], envinfo._blas(scipy)['threads'])")
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(run.ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["1", "1", "1"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "full_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
