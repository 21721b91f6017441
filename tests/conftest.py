"""One BLAS thread per test process, as the benchmark runs.

pytest imports this file before any test module, so the variables are set
before numpy loads its BLAS.  An explicit setting in the environment wins.
Threaded BLAS on the small dense matrices here costs more than it gains.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
