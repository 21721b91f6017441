"""The package runs on numpy alone.  Importing `scipy.integrate` took
0.6-0.9 s and about 50 MB per process on a 2-vCPU Xeon host, so no module
under src/ may import scipy.  The test modules import scipy as an oracle,
so the check runs in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = f"""
import json
import sys

sys.path.insert(0, {str(SRC)!r})
from paraburgers import experiments, solver

solver.run(solver.SimConfig(n_points=32, alpha=1.5, t_end=0.01, dt=0.002))
experiments.blowup_scan("cos1", (1.5,), (1.0,), n_pair=(32, 64), t_end=0.05)
members = experiments.standard_ensemble(32, 2.5, 0.02, dt=0.002,
                                        amplitudes=(1e-6,))
experiments.conjugation_study([solver.run(cfg) for cfg in members], 2.5)
members = experiments.standard_ensemble(32, 1.5, 0.02, dt=0.002,
                                        amplitudes=(1e-6,))
experiments.energy_estimate_study([solver.run(cfg) for cfg in members],
                                  2.0, 1.5)
print(json.dumps(sorted(name for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))))
"""


def test_studies_run_without_importing_scipy():
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", PROGRAM],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
