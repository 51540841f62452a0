"""Exception types shared across the package."""


class FermisepError(Exception):
    """Base class for all errors raised by this package."""


class _RowError(FermisepError, ValueError):
    """Fault in one row of a tuple listing; ``row`` is that row's 0-based index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class InvalidTupleError(_RowError):
    """Orbital tuple is malformed: not strictly increasing, out of range, or wrong length."""


class DuplicateEntryError(_RowError):
    """The same orbital tuple appears twice in a coefficient listing."""


class ZeroStateError(FermisepError, ValueError):
    """All supplied amplitudes vanish; no state can be normalized from them."""


class DegenerateOrbitalsError(FermisepError, ValueError):
    """Supplied orbitals are linearly dependent or have a non-finite entry."""


class DimensionError(FermisepError, ValueError):
    """Incompatible dimensions or a parameter out of range, for example N > D or a zero tolerance."""


class NonUnitaryError(FermisepError, ValueError):
    """Matrix fails the unitarity check beyond tolerance."""


class NotADensityMatrixError(FermisepError, ValueError):
    """The input is not a density matrix: not finite, not Hermitian, or eigenvalues too negative for noise."""


class InvalidDistributionError(FermisepError, ValueError):
    """Probability vector fails its normalization or positivity checks."""


class UnsupportedError(FermisepError, ValueError):
    """Operation is defined only for a particle number other than the one supplied."""


class ResourceLimitError(FermisepError, ValueError):
    """Requested instance exceeds the configured dense-verification cap."""


class StateFormatError(FermisepError, ValueError):
    """State file is syntactically or semantically malformed.

    ``line`` carries a 1-based line number into the offending file when one
    could be determined, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
