"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own class.
No check is an ``assert``, which ``python -O`` strips (a tier-1 test walks the
package for them); any other exception is a plain bug.  ``check_int`` is the
one rule for an integer parameter, here so that every module can take it.
"""


class WittlabError(Exception):
    """Base class for all library errors."""


class InvalidParameter(WittlabError, ValueError):
    """An input parameter is malformed or outside the range supported."""


class IntegralityFailure(WittlabError):
    """A coefficient that must be an integer is not (construction bug)."""


class FamilyTooLarge(WittlabError):
    """A universal polynomial family is predicted too large to build."""


class NonEisenstein(WittlabError):
    """The ramified modulus failed the Eisenstein criterion."""


class NotDivisible(WittlabError):
    """Exact division by a power of p is impossible at working precision."""


class RingMismatch(WittlabError):
    """Operands live in different rings (or incompatible lengths)."""


class TooShort(WittlabError):
    """Witt vector too short for the requested operation."""


class NotGaloisStable(WittlabError):
    """A Witt trace produced components not fixed under x -> x^q."""


class PrecisionNotReached(WittlabError):
    """A truncated series ran out of terms before the target precision."""


class NonIntegralResult(WittlabError):
    """A coefficient that must be p-integral is not (an exact division left a remainder)."""


class TailNotCertified(WittlabError):
    """Coefficient valuations do not certify the series tail at the target."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class SnapAmbiguous(WittlabError):
    """Two roots of unity are equally close: precision is too low."""


class SeedNotConverging(WittlabError):
    """Root-of-unity lifting failed (wrong ring level or precision too low)."""


class NotUnit(WittlabError):
    """Element expected to be invertible is not."""


class TruncationTooSmall(WittlabError):
    """The requested construction does not fit in the truncation degree."""


class NoConventionMatches(WittlabError):
    """Neither Gauss-sum summation convention matches the operator trace."""


class ReportedMismatch(WittlabError):
    """An exhaustive verification found an offending vector."""


class TimeBudgetExceeded(WittlabError):
    """A cooperative deadline ran out inside a long computation."""


def check_int(name, value, least=None):
    """Refuse a parameter that is not an integer (a bool is not one), or is
    below ``least`` when that is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameter(f"{name} = {value!r} is not an integer")
    if least is not None and value < least:
        raise InvalidParameter(f"{name} = {value!r} is below {least}")
