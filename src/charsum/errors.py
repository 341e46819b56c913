"""Exception types raised by the charsum library.

Every failure mode that callers are expected to handle has its own class,
so tests and the CLI can distinguish bad input from a falsified identity.
"""


class CharsumError(Exception):
    """Base class for all charsum errors."""


# --- construction / input errors -------------------------------------------

class NonPrimeP(CharsumError):
    """The characteristic p is not a prime number."""


class EvenCharacteristic(CharsumError):
    """p = 2 is not supported; the constructions need odd characteristic."""


class DegreeUnsupported(CharsumError):
    """Requested extension degree is not one of k, 2k, 4k."""


class DivisionByZero(CharsumError, ZeroDivisionError):
    """Multiplicative inverse of the zero element."""


class ZeroArgument(CharsumError):
    """An operation that needs a nonzero element received zero."""


class NotInSubfield(CharsumError):
    """Element does not belong to the named subfield."""


class NotRationalInteger(CharsumError):
    """A cyclotomic integer asserted to be rational has omega terms."""


class IndexOutOfRange(CharsumError):
    """Cyclotomic class index outside 0..p^k."""


class BothCoefficientsZero(CharsumError):
    """The coefficient pair (a, b) = (0, 0) is not admissible."""


class WrongCase(CharsumError):
    """Operation applied to a coefficient pair outside its case."""


class ZeroB(CharsumError):
    """Distribution sweep requires b != 0."""


class ZeroC(CharsumError):
    """Curve point count requires C != 0."""


class PeriodMismatch(CharsumError):
    """Cross-correlation of sequences with different periods."""


class GuardExceeded(CharsumError):
    """Requested field size exceeds the desk-scale guard."""


# --- identity violations (test-failure conditions) --------------------------

class NoSolution(CharsumError):
    """Internal: the g-equation had no solution although the case held."""


class IdentityViolation(CharsumError):
    """A verified claim of the paper failed; the CLI exits with status 1."""


class BoundViolation(IdentityViolation):
    """A proven bound was violated by an exhaustive scan."""


class OracleMismatch(IdentityViolation):
    """Closed form and brute-force oracle disagree."""


class KernelMismatch(IdentityViolation):
    """L and F of a pair with differing norms do not share one space of
    zeros of dimension 2 over GF(p^k): F does not split, F/A does not
    right-divide L, or L has more zeros."""


class RootCountViolation(IdentityViolation):
    """The spectrum root polynomial did not have exactly one root."""


class SpectrumViolation(IdentityViolation):
    """The (1, 1) Walsh spectrum departs from Theorem 1 (formula, special
    case, value counts or bent); the message starts with
    the failed condition and names the y or the count."""


class RangeViolation(IdentityViolation):
    """A three-valued case (NORM_DIFFER or SQUARE_MATCH) produced N > 2."""


class ParityViolation(IdentityViolation):
    """A count proven even came out odd: the zeros of L on U (-U = U and L
    is odd), 2 N on the Jacobsthal route, or a value count of the two
    equal half-period runs behind the cross-correlation table."""


class DivisibilityViolation(IdentityViolation):
    """A Jacobsthal sum H_{p^k+1} of the N route is not divisible by p^k + 1."""


class CaseViolation(IdentityViolation):
    """A consequence of a pair's case conditions failed: the defining
    equation of g, a nonzero nonsquare-count term, or the case of the
    special pairs of property (vi)."""


class CyclotomyViolation(IdentityViolation):
    """A cyclotomic number (i, j) differs from its closed form (Lemma 1)."""


class ClassSumViolation(IdentityViolation):
    """A cyclotomic class sum P_t differs from its closed form."""


class ParsevalViolation(IdentityViolation):
    """The squared magnitudes of a Walsh spectrum do not sum to p^(2n)."""


class InvariantViolation(IdentityViolation):
    """A fact that holds by construction failed: the shape of d, a lookup
    table's build-time self-check, a trace outside GF(p), a quadratic
    character other than 0 or +-1, or a subfield sum or root leaving its
    field."""
