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
    """``value`` if it is a real number in [lo, hi]; a bool, a string or NaN raises ``error``.

    A numpy float becomes a Python float, as ``integer`` makes a numpy
    integer an int; an int or a Fraction is returned unchanged, so the
    oracle keeps an exact p.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name}={value!r} is not a real number")
    if not lo <= value <= hi:
        raise error(f"{name}={value} outside [{lo}, {hi}]")
    return float(value) if isinstance(value, np.floating) else value


# Largest n the exact solvers accept, tables and optimal policies alike.
# They bound the tables' memory: build_tables holds about 34 bytes per entry
# (0.76 GB at its limit) and top3_table 8 plus 2 MiB of block scratch
# (tracemalloc peak 10.1 B per entry at n = 1e6, 8.2 at 1e7; 0.73 GB at its
# limit), while the policies hold 4 and 0.01 MiB at any n.  The top-3 limit
# also stops where float resolution runs out: next to the optimum,
# neighbouring thresholds differ by about 6 / n^2, near the 6e-16 error of
# each value at n = 9e7 (see the top3 module docstring).  The values are those
# of the former 2 GiB ceiling at 96 and 24 bytes per entry.
MAX_N_REAPPEARANCE = 22_369_621
MAX_N_TOP3 = 89_478_485

# Thresholds the exact solvers evaluate per block, and rows ``curve`` formats
# per write.  A block's temporaries (about 4 MiB for the re-arrival tables)
# stay near the cache and a reduction over all k holds no n-sized array,
# while the per-block numpy overhead stays small; 2**14 to 2**16 timed best
# on a 2-vCPU x86-64 VM.
BLOCK = 1 << 15
