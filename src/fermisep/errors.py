"""Exception types shared across the package."""


class FermisepError(Exception):
    """Base class for all errors raised by this package."""


class _RowError(FermisepError, ValueError):
    """Fault in one row of a listing, such as a tuple listing; ``row`` is that row's 0-based index."""

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
    """Incompatible dimensions, a size past a cap, a parameter out of range, a particle number outside what an
    operation takes, or an argument of the wrong kind or shape, for example N > D, a basis past the size rule, a
    dense tensor past oracle.DENSE_CAP, a zero tolerance, one fermion for the projection check, a float count, a
    ragged array or a plain array where a package object belongs."""


class NonUnitaryError(FermisepError, ValueError):
    """Matrix fails the unitarity check beyond tolerance."""


class NotADensityMatrixError(FermisepError, ValueError):
    """The input is not a density matrix: not finite, not Hermitian, or eigenvalues too negative for noise."""


class StateFormatError(FermisepError, ValueError):
    """State file is syntactically or semantically malformed.

    ``line`` carries the 1-based line of a JSON syntax error, else None; a
    refused entry is named in the message by its row in the amplitudes array.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
