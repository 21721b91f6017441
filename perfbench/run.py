"""Benchmark of the paraburgers package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of full_scan, paralinear_run, energy_study, conjugation_study.
Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  `all` runs
every workload, untraced and traced, each in its own process, and prints
every metric with its unit.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 3          # cold set-ups per run: this process plus children
MIN_REPS = 3            # timed repetitions even when one outlasts --seconds
CHILD_TIMEOUT_S = 60
WORKLOAD_NAMES = ("full_scan", "paralinear_run", "energy_study",
                  "conjugation_study")


# The benchmark runs the program on one core with one BLAS thread.  The
# study pools start os.cpu_count() threads; on a shared host the overlap
# they get, and threaded BLAS inside them, follow the host's scheduler
# rather than the program (see README.md, "Threads and cores").
def pin_to_one_core():
    """One core and one BLAS thread for this process and its children;
    must run before numpy loads."""
    if "numpy" in sys.modules:
        sys.exit("error: threads must be pinned before numpy loads")
    from envinfo import THREAD_VARIABLES

    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program():
    """Import paraburgers from ./src; seconds taken."""
    if not (SRC / "paraburgers" / "__init__.py").is_file():
        sys.exit(f"error: no paraburgers sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import paraburgers.experiments
    elapsed = time.perf_counter() - start
    if Path(paraburgers.__file__).resolve().parent != SRC / "paraburgers":
        sys.exit(f"error: paraburgers imported from {paraburgers.__file__}")
    return elapsed


def cold_setup(name, seed, size="full"):
    """Import, inputs from the seed, and one cold repetition.

    Returns (workload, seconds, what is wrong with its output or None).
    """
    import_s = import_program()
    from workloads import Workload

    start = time.perf_counter()
    workload = Workload(name, seed, size)
    _, _, _, problem = timed(workload, 0)
    return workload, import_s + time.perf_counter() - start, problem


def child_setups(name, seed, count):
    """Set-up seconds of `count` fresh processes; None marks a failure."""
    samples = []
    for _ in range(count):
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--setup-only"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            proc = None
        record = None
        if proc and proc.returncode == 0 and proc.stdout.strip():
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(record["setup_s"] if record and record["ok"] else None)
    return samples


def layer_targets():
    """(metric prefix, owner, attribute, counter) for each traced layer."""
    import scipy.linalg
    from paraburgers import (experiments, gauge, normalform, paraop, solver,
                             spectral, symbols)

    def materialized(tracer, result):
        tracer.add("paraop.materialize.bytes", result.entries.nbytes)

    def newton(tracer, result):
        tracer.add("gauge.solve_nonlinear_exp.iterations", result.iterations)

    def sweeps(tracer, result):
        if result:
            tracer.add("gauge.solve_conjugating.sweeps", result[0].iterations)

    return [
        ("solver.run", solver, "run", None),
        ("solver.step", solver, "step", None),
        ("solver.default_dt", solver, "default_dt", None),
        ("spectral.multiplier_apply", spectral, "multiplier_apply", None),
        ("spectral.linf_norm", spectral, "linf_norm", None),
        ("paraop.dealias_product", paraop, "dealias_product", None),
        ("paraop.materialize", paraop, "materialize", materialized),
        ("paraop.OperatorMatrix.apply", paraop.OperatorMatrix, "apply", None),
        ("symbols.regularize", symbols, "regularize", None),
        ("linalg.expm", scipy.linalg, "expm", None),
        ("symbols.seminorm", symbols, "seminorm", None),
        ("paraop.order_probe", paraop, "order_probe", None),
        ("gauge.solve_commutator", gauge, "solve_commutator", None),
        ("gauge.solve_nonlinear_exp", gauge, "solve_nonlinear_exp", newton),
        ("gauge.solve_conjugating", gauge, "solve_conjugating", sweeps),
        ("normalform.normal_form", normalform, "normal_form", None),
        ("normalform.build_chi1", normalform, "build_chi1", None),
        ("experiments.energy_estimate_study", experiments,
         "energy_estimate_study", None),
        ("experiments.conjugation_study", experiments, "conjugation_study",
         None),
        ("experiments.blowup_scan", experiments, "blowup_scan", None),
    ]


COUNTER_METRICS = {
    "paraop.materialize.bytes": "B",
    "gauge.solve_nonlinear_exp.iterations": "count",
    "gauge.solve_conjugating.sweeps": "count",
}


def layer_sample(spans, counters, targets, root_thread):
    """Per-layer values of one traced repetition."""
    from tracer import self_times

    totals = self_times(spans)
    sample = {}
    for name, *_ in targets:
        calls, busy = totals.get(name, (0, 0.0))
        sample[f"{name}.calls"] = (calls, "count")
        sample[f"{name}.self_s"] = (busy, "s")
    for key, unit in COUNTER_METRICS.items():
        sample[key] = (counters.get(key, 0), unit)
    workers = {span.thread for span in spans} - {root_thread}
    sample["experiments.pool.threads"] = (len(workers), "count")
    return sample


def timed(workload, i):
    """(wall s, process cpu s, output, problem) of repetition i; the
    problem is None when the output passes its check."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        out = workload.repeat(i)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        problems = workload.problems(i, out)
    except Exception as exc:  # a failed repetition is counted, not fatal
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        out, problems = None, [f"raised {exc!r}"]
    return wall, cpu, out, "; ".join(problems) or None


def measure(workload, seconds, first_index):
    """Untraced repetitions for `seconds`; end-to-end samples."""
    walls, cpus, failures = [], [], []
    i = first_index
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_REPS:
        wall, cpu, _, problem = timed(workload, i)
        walls.append(wall)
        cpus.append(cpu)
        if problem:
            failures.append(f"repetition {i}: {problem}")
        i += 1
    return walls, cpus, failures


def measure_traced(workload, seconds, first_index):
    """Untraced and traced repetitions in pairs for `seconds`.

    Returns the wall times of both kinds, per-layer samples of the traced
    ones, failures, the last traced repetition's spans, and the layers
    that were not found.
    """
    from tracer import Tracer
    from workloads import same_output

    targets = layer_targets()
    tracer = Tracer()
    plain, traced, samples, failures = [], [], [], []
    last_spans, missing = [], []
    i = first_index
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(traced) < max(MIN_REPS, workload.variants)):
        wall, _, untraced_out, problem = timed(workload, i)
        plain.append(wall)
        if problem:
            failures.append(f"repetition {i}: {problem}")
        missing = tracer.install(targets)
        try:
            wall, _, out, problem = timed(workload, i)
        finally:
            tracer.uninstall()
        spans, counters = tracer.take()
        traced.append(wall)
        if out is not None and not same_output(out, untraced_out):
            problem = "output differs from the untraced repetition"
        if problem:
            failures.append(f"traced repetition {i}: {problem}")
        samples.append(layer_sample(spans, counters, targets,
                                    tracer.root_thread))
        last_spans = spans
        i += 1
    return plain, traced, samples, failures, last_spans, missing


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(name, seed, seconds, trace, size="full", setup_runs=SETUP_RUNS):
    """One benchmark run; (result line, detail record)."""
    workload, setup_s, problem = cold_setup(name, seed, size)
    failures = [f"cold repetition: {problem}"] if problem else []
    attempted = 1
    detail = {"workload": name, "seed": seed,
              "input_seed": workload.input_seed, "seconds": seconds,
              "trace": trace, "size": size, "unit_of_work": workload.unit,
              "work_per_repetition": workload.work}
    if not trace:
        setups = [setup_s] + child_setups(name, seed, setup_runs - 1)
        attempted += len(setups) - 1
        failures.extend("set-up process failed" for s in setups if s is None)
        setups = [s for s in setups if s is not None]
        walls, cpus, rep_failures = measure(workload, seconds, 1)
        attempted += len(walls)
        failures.extend(rep_failures)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "work_per_s": metric(workload.work / statistics.median(walls),
                                 "work/s"),
            "cpu_s_per_work": metric(statistics.median(cpus) / workload.work,
                                     "s/work"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        detail.update(setup_samples_s=setups, wall_samples_s=walls,
                      cpu_samples_s=cpus)
    else:
        plain, traced, samples, rep_failures, spans, missing = \
            measure_traced(workload, seconds, 1)
        attempted += 2 * len(traced)
        failures.extend(rep_failures)
        metrics = {
            key: metric(statistics.median(s[key][0] for s in samples),
                        samples[0][key][1])
            for key in samples[0]
        }
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(traced) / statistics.median(plain), "ratio")
        origin = min((s.start for s in spans), default=0.0)
        detail.update(
            plain_samples_s=plain, traced_samples_s=traced,
            layers_not_found=missing,
            spans_of_last_traced_repetition=[
                [s.id, s.name, s.start - origin, s.end - origin, s.parent,
                 s.thread] for s in sorted(spans, key=lambda s: s.id)],
        )
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail["failures"] = failures
    return result, detail


def run_all(seed, seconds):
    """Every workload untraced and traced, each in its own process."""
    print(f"{'workload':<18} {'metric':<44} {'value':>16}  unit")
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{name:<18} run failed (exit {proc.returncode}):\n"
                      f"{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            if not trace:
                rate = result["failed"] / result["attempted"]
                print(f"{name:<18} {'error_rate':<44} {rate:>16.6g}  "
                      f"failed/attempted ({result['attempted']} attempted)")
            for key, m in result["metrics"].items():
                print(f"{name:<18} {key:<44} {m['value']:>16.6g}  {m['unit']}")
    print("all output checks passed" if ok else "SOME OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (internal)")
    args = parser.parse_args(argv)
    pin_to_one_core()

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.setup_only:
        _, setup_s, problem = cold_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "ok": problem is None}))
        return 0

    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    from envinfo import environment

    env = environment(ROOT, args.seed, detail["input_seed"])
    detail["environment"] = env
    detail["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(detail))
    for failure in detail["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for name in detail.get("layers_not_found", []):
        print(f"layer not found, reported as 0: {name}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
