"""Load numpy with one OpenBLAS thread; the CLI imports this first.

atckit's only BLAS/LAPACK call is ``np.polyfit`` on about ten points, yet
OpenBLAS starts one pool thread per extra CPU as numpy loads, and that
thread spins on CPU time of its own. OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only while it loads, so the variable is set for
the import and deleted straight after: the environment is left as it was
found. Nothing is done when numpy is already loaded or the caller set the
variable, so library callers and their settings are never touched.
"""

import os
import sys

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
