"""Exception types shared across the package, and the memory limits they enforce."""


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


# Ceiling on the arrays one call may hold at its peak.  Every published size
# fits far below it (top3_table at n = 1e7 holds its 80 MB table and
# block-sized scratch); a larger n is refused before anything is allocated,
# instead of ending in a numpy memory error or exhausting a machine that
# grants the allocation.  The optimal-policy solvers never hold a whole table
# but refuse the same n as the tables they reduce, so one limit covers both.
MAX_WORKING_BYTES = 2 << 30

# Thresholds the exact solvers evaluate per block, and rows ``curve`` formats
# per write.  A block's temporaries (about 4 MiB for the re-arrival tables)
# stay near the cache and a reduction over all k holds no n-sized array,
# while the per-block numpy overhead stays small; 2**14 to 2**16 timed best
# on a 2-vCPU x86-64 VM.
BLOCK = 1 << 15


def check_working_set(n: int, bytes_per_entry: int, what: str):
    """Raise DomainError when n entries of bytes_per_entry exceed MAX_WORKING_BYTES."""
    if n * bytes_per_entry > MAX_WORKING_BYTES:
        raise DomainError(
            f"{what} at n={n} needs about {n * bytes_per_entry / 2**30:.3g} GiB, "
            f"over the {MAX_WORKING_BYTES >> 30} GiB limit"
        )
