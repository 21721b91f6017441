"""Certificates are raised errors, not asserts, so they still fire when
Python runs with -O and strips every assert statement.  The inputs are
those of `tests/test_gauge.py::TestNonlinearExp::test_smallness_guard`,
of its `test_unmasked_data_is_rejected_as_regularize_rejects_it` and of
the N = 64 bump member in
`tests/test_experiments.py::TestStackedConjugationCell`."""

import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

PROGRAM = f"""
import json
import sys

sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]
import numpy as np

from helpers import band_symbol
from paraburgers import experiments, gauge, paraop, solver
from paraburgers.spectral import Grid
from paraburgers.symbols import Cutoff, regularize

raised = {{"optimize": sys.flags.optimize}}
a = band_symbol(Grid(64), Cutoff(8.0, 2.0), np.random.default_rng(53),
                amplitude=0.1)
try:
    gauge.solve_nonlinear_exp(a, 1.5, Cutoff(8.0, 2.0))
except Exception as err:
    raised["smallness"] = type(err).__name__

# a symbol marked regularized with an entry where psi vanishes
a_reg = regularize(a, Cutoff(8.0, 2.0))
coeffs = a_reg.coeffs.copy()
coeffs[Grid(64).index_of(20), Grid(64).index_of(5)] = 1e-4
try:
    paraop.materialize(a_reg.copy(coeffs=coeffs), Cutoff(8.0, 2.0))
except Exception as err:
    raised["mislabelled"] = type(err).__name__

members = experiments.standard_ensemble(64, 2.5, 0.02, dt=0.002,
                                        amplitudes=(1e-6,))
bump = members[experiments.ENSEMBLE_FAMILIES.index("bump")]
experiments.ELLIPTIC_C = 1.0
try:
    experiments.conjugation_study([solver.run(bump)], 2.5)
except Exception as err:
    raised["ellipticity"] = type(err).__name__
print(json.dumps(raised))
"""


def test_certificates_fire_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-W", "ignore", "-c",
                           PROGRAM], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "optimize": 1, "smallness": "SmallnessViolated",
        "mislabelled": "InvariantBroken", "ellipticity": "InvariantBroken"}
