"""Exception types shared across the package."""


class LcpqError(Exception):
    """Base class for package errors."""


class MatrixFormatError(LcpqError):
    """Input could not be parsed into a square rational matrix."""


class NotBdswShapeError(LcpqError):
    """Operation requires the bidiagonal-southwest zero pattern."""


class SingularPivotError(LcpqError):
    """Principal pivot block is singular."""


class NotR0Error(LcpqError):
    """Operation requires the R0 property (trivial homogeneous LCP)."""


class StructureError(LcpqError):
    """Matrix does not match the structural preconditions of a classifier."""


class EnumerationCapError(LcpqError):
    """Matrix order exceeds the support-enumeration cap."""


class DegreeSamplingError(LcpqError):
    """Could not find a generic point within the resampling budget."""


class CertificateError(LcpqError):
    """A certificate built by the package failed its own exact check."""
