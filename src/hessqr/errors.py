"""Exception hierarchy.

``RetryableFailure`` marks the probabilistic failure events: the driver may
rerun the failing subcall with fresh randomness, everything else is a hard
error in the inputs or the environment.  ``SmallEigFailure`` is one of the
hard errors: the small eigensolver uses no randomness, so a rerun would
fail again in the same way.
"""


class HessqrError(Exception):
    pass


class DomainError(HessqrError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DimensionError(HessqrError, ValueError):
    """Matrix or vector dimensions do not satisfy the operation's contract."""


class ParameterError(HessqrError, ValueError):
    """Derived or supplied parameters violate their invariants."""


class StructureError(HessqrError, ValueError):
    """A matrix is not upper Hessenberg (or carries non-finite entries)."""


class SingularityError(HessqrError, ArithmeticError):
    """A linear system is singular at the working precision."""


class RetryableFailure(HessqrError, RuntimeError):
    """A probabilistic guarantee failed; a reseeded retry is legitimate."""


class DichotomyMiss(RetryableFailure):
    """Ritz values were neither optimal nor did any of them decouple."""


class StagnationFailure(RetryableFailure):
    """No exceptional-shift candidate reduced the potential or decoupled."""


class SmallEigFailure(HessqrError, RuntimeError):
    """The small eigenvalue solver could not certify its forward accuracy."""


class BudgetExceeded(HessqrError, RuntimeError):
    """A while loop ran past its iteration budget."""


class SolveFailure(HessqrError, RuntimeError):
    """Probabilistic failure persisted through all retries."""


class OracleError(HessqrError, RuntimeError):
    """A reference computation could not certify its own accuracy."""


class ParseError(HessqrError, ValueError):
    """Input file is malformed; carries a 1-based line number."""

    def __init__(self, msg, line=None):
        super().__init__(msg if line is None else f"line {line}: {msg}")
        self.line = line
