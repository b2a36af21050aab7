"""Exception types, the checks every numeric input passes, the exact solvers' n limits and block size."""

import math
import numbers

import numpy as np


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


def integer(name: str, value, lo=-math.inf, hi=math.inf, error: type = DomainError,
            not_integer: type | None = None) -> int:
    """``value`` as a Python int in lo..hi, so no numpy integer reaches later arithmetic.

    A bool or a non-integral value (10.0, "10", NaN) raises ``not_integer`` (default ``error``).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise (not_integer or error)(f"{name}={value!r} is not an integer")
    value = int(value)
    if not lo <= value <= hi:
        raise error(f"{name}={value} outside {lo}..{hi}" if hi < math.inf
                    else f"need {name} >= {lo}, got {value}")
    return value


def real(name: str, value, lo=-math.inf, hi=math.inf, error: type = DomainError):
    """``value`` unchanged if it is a real number in [lo, hi]; a bool, a string or NaN raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name}={value!r} is not a real number")
    if not lo <= value <= hi:
        raise error(f"{name}={value} outside [{lo}, {hi}]")
    return value


# Largest n the exact solvers accept, tables and optimal policies alike.
# These n limits are kept from the 2 GiB ceiling that the tables' former 96
# and 24 bytes per entry set; at them build_tables now holds about 34 and
# top3_table about 9 bytes per entry, and the policies 4 and 1 MiB at any n.
MAX_N_REAPPEARANCE = 22_369_621
MAX_N_TOP3 = 89_478_485

# Thresholds the exact solvers evaluate per block, and rows ``curve`` formats
# per write.  A block's temporaries (about 4 MiB for the re-arrival tables)
# stay near the cache and a reduction over all k holds no n-sized array,
# while the per-block numpy overhead stays small; 2**14 to 2**16 timed best
# on a 2-vCPU x86-64 VM.
BLOCK = 1 << 15
