"""Exact verification toolkit for quaternionic spinor algebra.

Builds concrete Clifford models of R^{4m} with a compatible hyperkaehler
triple, decomposes the spinor module into joint weight blocks, checks the
operator identities behind the twistor projector calculus with exact
arithmetic, reproduces the block transition constants, and tabulates the
resulting Dirac eigenvalue lower-bound coefficients.

Every name is imported from its own module (`from quatspin.exact import
SparseMatrix`); the package itself holds only `__version__` and the guard
below, which every import of a quatspin module passes through.
"""

import os as _os
import sys as _sys

# No quatspin command makes a BLAS call: load numpy's OpenBLAS on one thread
# (it reads the variable once, as it loads) unless the caller chose a count.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
