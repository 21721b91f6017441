"""The four benchmark workloads: inputs made from a seed, one repetition,
and the check of a repetition's output against recorded references.

Every workload object has the same shape:

- ``work``: units of work one repetition completes (``unit`` names them);
- ``variants``: repetitions cycle through this many distinct calls;
- ``repeat(i)``: runs repetition ``i`` and returns its output summary, a
  dict of plain values (the paralinear final state is a numpy array);
- ``problems(out, ref)``: what is wrong with an output against the
  recorded summary of the same variant, as a list of messages.

Inputs come from ``seed % REFERENCE_SEEDS``, the seeds for which
``reference.json`` and ``reference_paralinear.npy`` hold outputs recorded
by ``record.py``.  The toy sizes exist for the benchmark's own tests; a
toy workload takes its first repetition of each variant as the reference.
"""

import json
import math
from pathlib import Path

import numpy as np

from paraburgers import experiments, solver
from paraburgers.solver import SimConfig

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
STATES_FILE = HERE / "reference_paralinear.npy"
REFERENCE_SEEDS = 16

RATIO_RTOL = 1e-10     # fitted_constant and max_ratio (ROADMAP 5 gate)
STATE_RTOL = 1e-12     # paralinear final state (ROADMAP 4a gate)
GROWTH_RTOL = 1e-8     # scan growth factors; see README.md
LOW_MODE_TOL = 1e-9    # solver.LOW_MODE_TOL when the references were made

SIZES = {
    "full": {
        "full_scan": dict(n_pair=(256, 512), t_end=0.25),
        "paralinear_run": dict(n_points=512, t_end=0.02),
        "energy_study": dict(n_points=64, t_end=0.02),
        "conjugation_study": dict(n_points=64, t_end=0.02),
    },
    "toy": {
        "full_scan": dict(n_pair=(32, 64), t_end=0.05),
        "paralinear_run": dict(n_points=32, t_end=0.003),
        "energy_study": dict(n_points=32, t_end=0.008),
        "conjugation_study": dict(n_points=32, t_end=0.008),
    },
}


def rel_close(value, ref, rtol):
    """|value - ref| <= rtol |ref|; a zero reference must be met exactly."""
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def _report_summary(report):
    return {
        "fitted_constant": report.fitted_constant,
        "max_ratio": report.max_ratio,
        "ensemble_size": report.ensemble_size,
        "verdict": report.verdict,
    }


def _report_problems(out, ref):
    problems = []
    for key in ("verdict", "ensemble_size"):
        if out[key] != ref[key]:
            problems.append(f"{key} {out[key]!r} != reference {ref[key]!r}")
    for key in ("fitted_constant", "max_ratio"):
        if not rel_close(out[key], ref[key], RATIO_RTOL):
            problems.append(f"{key} {out[key]!r} differs from reference "
                            f"{ref[key]!r} beyond {RATIO_RTOL:g} relative")
    return problems


class FullScan:
    """Full-equation wave-breaking scan; work is counted in scan cells."""

    name = "full_scan"
    unit = "scan cells"
    variants = 1
    alphas = (1.2, 1.5)
    amplitudes = (1.0, 10.0)

    def __init__(self, seed, n_pair, t_end):
        self.seed = seed
        self.n_pair = tuple(n_pair)
        self.t_end = t_end
        self.work = len(self.alphas) * len(self.amplitudes)

    def repeat(self, i):
        cells = experiments.blowup_scan(
            "cos1", alpha_list=self.alphas, amplitude_list=self.amplitudes,
            n_pair=self.n_pair, t_end=self.t_end, seed=self.seed, dt=None,
        )
        return {"cells": [
            {"alpha": c.alpha, "amplitude": c.amplitude, "coarse": c.coarse,
             "fine": c.fine, "outcome": c.outcome,
             "lip_growth": c.lip_growth, "sup_growth": c.sup_growth}
            for c in cells
        ]}

    @staticmethod
    def problems(out, ref):
        if len(out["cells"]) != len(ref["cells"]):
            return [f"{len(out['cells'])} cells, reference has "
                    f"{len(ref['cells'])}"]
        problems = []
        for got, want in zip(out["cells"], ref["cells"]):
            where = f"cell ({want['alpha']:g}, {want['amplitude']:g})"
            for key in ("alpha", "amplitude", "coarse", "fine", "outcome"):
                if got[key] != want[key]:
                    problems.append(f"{where} {key} {got[key]!r} != "
                                    f"reference {want[key]!r}")
            for key in ("lip_growth", "sup_growth"):
                if not rel_close(got[key], want[key], GROWTH_RTOL):
                    problems.append(f"{where} {key} {got[key]!r} differs from "
                                    f"reference {want[key]!r}")
        return problems


class ParalinearRun:
    """One paralinear trajectory with a fixed step; work is solver steps."""

    name = "paralinear_run"
    unit = "solver steps"
    variants = 1
    dt = 1e-3

    def __init__(self, seed, n_points, t_end):
        self.config = SimConfig(
            n_points=n_points, alpha=2.0, t_end=t_end, equation="paralinear",
            init="random", amplitude=0.01, dt=self.dt, seed=seed,
        )
        self.work = int(round(t_end / self.dt))

    def repeat(self, i):
        traj = solver.run(self.config)
        return {
            "final": traj.final().spectral.copy(),
            "t_final": float(traj.times[-1]),
            "samples": len(traj.times),
            "blowup": traj.blowup,
            "low_mode_residual": traj.low_mode_residual,
        }

    @staticmethod
    def problems(out, ref):
        problems = []
        for key in ("t_final", "samples", "blowup"):
            if out[key] != ref[key]:
                problems.append(f"{key} {out[key]!r} != reference {ref[key]!r}")
        if out["final"].shape != ref["final"].shape:
            return problems + ["final state has the wrong shape"]
        gap = float(np.max(np.abs(out["final"] - ref["final"])))
        scale = float(np.max(np.abs(ref["final"])))
        if not gap <= STATE_RTOL * scale:
            problems.append(f"final state differs by {gap:.3e}, beyond "
                            f"{STATE_RTOL:g} of its sup {scale:.3e}")
        if not out["low_mode_residual"] <= LOW_MODE_TOL:
            problems.append(f"low_mode_residual {out['low_mode_residual']:.3e}"
                            f" exceeds {LOW_MODE_TOL:g}")
        return problems


def _ensemble(n_points, alpha, t_end, seed):
    configs = experiments.standard_ensemble(
        n_points, alpha, t_end, dt=0.002, amplitudes=(1e-6,), seed=seed
    )
    return [solver.run(cfg) for cfg in configs]


class EnergyStudy:
    """Energy-estimate study over a paralinear ensemble; alpha alternates."""

    name = "energy_study"
    unit = "ensemble members"
    study_alphas = (1.5, 1.75)
    variants = len(study_alphas)

    def __init__(self, seed, n_points, t_end):
        self.trajectories = _ensemble(n_points, 1.5, t_end, seed)
        self.work = len(self.trajectories)

    def repeat(self, i):
        alpha = self.study_alphas[i % self.variants]
        report = experiments.energy_estimate_study(
            self.trajectories, 2.0, alpha
        )
        return {"alpha": alpha, **_report_summary(report)}

    @staticmethod
    def problems(out, ref):
        if out["alpha"] != ref["alpha"]:
            return [f"alpha {out['alpha']} != reference {ref['alpha']}"]
        return _report_problems(out, ref)


class ConjugationStudy:
    """Conjugation-residual study over a paralinear ensemble at alpha 2.5."""

    name = "conjugation_study"
    unit = "ensemble members"
    variants = 1

    def __init__(self, seed, n_points, t_end):
        self.trajectories = _ensemble(n_points, 2.5, t_end, seed)
        self.work = len(self.trajectories)

    def repeat(self, i):
        report = experiments.conjugation_study(self.trajectories, 2.5)
        return _report_summary(report)

    problems = staticmethod(_report_problems)


WORKLOADS = {cls.name: cls for cls in
             (FullScan, ParalinearRun, EnergyStudy, ConjugationStudy)}


def load_references(name, input_seed):
    """Recorded summaries of workload `name`, one per variant."""
    table = json.loads(REFERENCE_FILE.read_text())
    refs = table[name][str(input_seed)]
    if name == "paralinear_run":
        refs = [dict(refs[0], final=np.load(STATES_FILE)[input_seed])]
    return refs


class Workload:
    """A sized workload bound to its references."""

    def __init__(self, name, seed, size="full"):
        self.input_seed = seed % REFERENCE_SEEDS
        self.impl = WORKLOADS[name](self.input_seed, **SIZES[size][name])
        self.unit = self.impl.unit
        self.work = self.impl.work
        self.variants = self.impl.variants
        self._refs = (load_references(name, self.input_seed)
                      if size == "full" else [None] * self.variants)

    def repeat(self, i):
        return self.impl.repeat(i)

    def problems(self, i, out):
        """What is wrong with the output of repetition i; [] when correct.

        A toy workload has no recorded references: the first output of
        each variant becomes its reference.
        """
        slot = i % self.variants
        if self._refs[slot] is None:
            self._refs[slot] = out
            return []
        return self.impl.problems(out, self._refs[slot])


def same_output(a, b):
    """Bit-for-bit equality of two output summaries."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_output(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(same_output(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.tobytes() == b.tobytes()
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b
