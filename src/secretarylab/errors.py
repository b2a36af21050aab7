"""Exception types shared across the package."""


class SecretaryLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(SecretaryLabError, ValueError):
    """Problem parameters violate their invariants (e.g. n too small)."""


class IndexOutOfRange(SecretaryLabError, IndexError):
    """A threshold or table index lies outside its valid range."""


class DegenerateInstance(SecretaryLabError, ValueError):
    """Instance too small for the top-3 objective to be meaningful (n < 4)."""


class NonFinite(SecretaryLabError, ArithmeticError):
    """A computed value became NaN or infinite, or left its valid range."""


class DomainError(SecretaryLabError, ValueError):
    """A scalar argument lies outside the function's domain."""


class BracketError(SecretaryLabError, ArithmeticError):
    """Root bracketing or convergence failed."""


class MixedSequence(SecretaryLabError, ValueError):
    """A single-appearance policy was given a sequence with repeat arrivals."""


class InvalidCombination(SecretaryLabError, ValueError):
    """Mutually incompatible options (e.g. top-3 objective with p > 0)."""


class TooLarge(SecretaryLabError, ValueError):
    """Instance exceeds the exact enumeration limits."""
