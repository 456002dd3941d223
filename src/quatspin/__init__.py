"""Exact verification toolkit for quaternionic spinor algebra.

Builds concrete Clifford models of R^{4m} with a compatible hyperkaehler
triple, decomposes the spinor module into joint weight blocks, checks the
operator identities behind the twistor projector calculus with exact
arithmetic, reproduces the block transition constants, and tabulates the
resulting Dirac eigenvalue lower-bound coefficients.
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

from .errors import (
    QuatspinError,
    DimensionError,
    DomainError,
    SpectrumError,
    IdentityFailure,
    ResourceLimitError,
)
from .exact import (
    ExactScalar,
    DenseMatrix,
    lagrange_eigenprojectors,
    column_space_basis,
    FLOAT_TOL,
    FLOAT_SCALAR_TOL,
)
from .sparse import SparseMatrix
from .clifford import (
    CliffordModel,
    build_clifford_model,
    corrupt_gamma,
    vector_action,
    basis_vector,
)
from .quaternionic import (
    HyperkahlerTriple,
    KaehlerOperators,
    AdaptedBasis,
    build_standard_triple,
    kaehler_form,
    kraines_form,
    build_kaehler_operators,
    build_adapted_basis,
    structure_report,
)
from .symmetry import (
    LineSymmetry,
    LineSymmetryCertificate,
    line_symmetries,
    certify_line_symmetry,
)
from .decomposition import (
    Block,
    JointDecomposition,
    World,
    build_world,
    decompose,
    lattice_allows,
    omega_eigenvalue,
    weight_eigenvalue,
    decomposition_report,
)
from .projectors import (
    ProjectorCalculus,
    j_operator,
    q_plus,
    q_minus,
    p_plus,
    p_minus,
    BlockConstant,
    block_constants,
    compute_A,
    closed_form_A,
    verify_lemma_identities,
    constants_report,
)
from .report import CheckEntry, VerificationReport, residual_entry, info_entry
from .bounds import (
    BoundCoefficient,
    BoundRow,
    BoundReport,
    bound_case_A,
    bound_case_B,
    bound_property_report,
    universal_coefficient,
    comparison_bounds,
    build_bound_report,
)
from .so3 import (
    Irrep,
    Rotation,
    RotationSearch,
    build_irrep,
    rotation_from_quaternion,
    identity_rotation,
    random_vector,
    check_rotation,
    rotated_generator,
    top_weight_projector,
    highest_weight_component,
    find_rotation_with_top_component,
    irrep_report,
)

__version__ = "0.1.0"
