"""Randomized shifted QR eigensolver for complex upper Hessenberg matrices.

Library entry point: ``solve(matrix, SolveConfig(...))``.  The submodules
follow the pipeline: kernel (scalar primitives), iqr (implicit QR steps and
the potential), ritz (optimality / regularization / dichotomy), shifting
(promising values and exceptional shifts), driver (recursion, deflation,
preprocessing), smalleig (certified corner eigensolver), oracle (reference
computations for tests), cli (command line).  Within one QR iteration the
layers pass plain values: the driver's L = log2 psi_k(H)^k for the iterate,
shifts as tuples of roots, and the step taken as one ``iqr.Step`` record
(next iterate, branch, shift, and the iterate's bottom-k moduli and L, which
``iqr.kept_step`` formed once).
"""

from .driver import SolveConfig, SolveResult, preprocess, shifted_qr, solve
from .iqr import HessenbergMatrix
from .params import GlobalData, RunParams, derive_globals, derive_run_params, required_precision
from .smalleig import DEFAULT_SOLVER, CharPolySolver

__version__ = "0.1.0"

__all__ = [
    "CharPolySolver",
    "DEFAULT_SOLVER",
    "GlobalData",
    "HessenbergMatrix",
    "RunParams",
    "SolveConfig",
    "SolveResult",
    "derive_globals",
    "derive_run_params",
    "preprocess",
    "required_precision",
    "shifted_qr",
    "solve",
    "__version__",
]
