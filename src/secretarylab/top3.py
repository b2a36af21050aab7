"""Classical threshold rule scored against a relaxed, top-3 objective.

Candidates arrive exactly once in uniformly random order.  The rule rejects
the first k arrivals and accepts the next arrival that beats everything seen
so far; the hire counts as a success when its absolute rank is 1, 2 or 3.

prob[k] satisfies the backward recurrence

    prob[k] = (1 - q(k)) / (k + 1) + k / (k + 1) * prob[k + 1],  prob[n] = 0,

where q(k) = C(n-3, k+1) / C(n, k+1) is the chance that none of the first
k+1 arrivals ranks in the top three.  It telescopes to

    prob[k] = k * sum_{j=k}^{n-1} (1 - q(j)) / (j (j + 1)),  k >= 1,

and 1 - q(j) = (j + 1) Q(j) / (n (n-1) (n-2)) with
Q(j) = j^2 + (5 - 3n) j + 3 (n-1) (n-2), so each term is
Q(j) / (n (n-1) (n-2) j).  Summing over j gives the closed form

    prob[k] = (k/n) [3 (H_{n-1} - H_{k-1}) + (n-k)(k - 5n + 9) / (2 (n-1)(n-2))]

for 1 <= k <= n, and prob[0] = 3/n, with H_m the m-th harmonic number;
``_prob_blocks`` evaluates it block by block.  At k = x n,
H_{n-1} - H_{k-1} tends to -ln x, and the closed form to the limit curve
of ``asymptotics.top3_limit``,

    P(x) = -3 x ln(x) + 3 x^2 - x^3/2 - 5 x/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import DegenerateInstance, DomainError, IndexOutOfRange, InvalidSpec, NonFinite
from .reappearance import OptimalPolicy, copy_blocks

__all__ = ["Top3Table", "binom_survival_ratio", "top3_table", "optimal_policy_top3"]


@dataclass(frozen=True)
class Top3Table:
    """Success probability of the threshold-k rule, prob[k] for k = 0..n."""

    n: int
    prob: np.ndarray


def _check_n(n) -> int:
    """The top-3 n as an int: InvalidSpec, DegenerateInstance below 4, DomainError past the limit."""
    n = errors.integer("n", n, error=InvalidSpec)
    if n < 4:
        raise DegenerateInstance(f"top-3 objective is degenerate for n < 4, got n={n}")
    if n > errors.MAX_N_TOP3:
        raise DomainError(f"top-3 solver accepts n <= {errors.MAX_N_TOP3}, got n={n}")
    return n


def check_k(k, n: int) -> int:
    """The threshold k as an int: DomainError unless an integer, IndexOutOfRange outside 0..n-1."""
    return errors.integer("threshold k", k, 0, n - 1, IndexOutOfRange, DomainError)


def binom_survival_ratio(n: int, k: int) -> float:
    """Probability that none of the first k+1 arrivals is a top-3 candidate.

    Evaluates C(n-3, k+1) / C(n, k+1) in the cancelled product form
    ((n-k-1)/n) * ((n-k-2)/(n-1)) * ((n-k-3)/(n-2)); every factor is at
    most 1, so the computation cannot overflow for n up to 1e7.  The result
    is exactly 0 whenever k+1 > n-3.
    """
    n = _check_n(n)
    k = check_k(k, n)
    r = ((n - k - 1) / n) * ((n - k - 2) / (n - 1)) * ((n - k - 3) / (n - 2))
    return r + 0.0  # normalise -0.0 from the zero factor at the tail


def _prob_blocks(n: int):
    """Yield (lo, prob[lo..hi]) in ascending k, block by block from k = n-1 down to 1.

    The harmonic tail 3 (H_{n-1} - H_{k-1}) is one cumulative sum of 3/j
    from the top, carried from each block into the highest element of the
    next, so every block is bit-identical to the same rows of a single
    whole-table sum.  The quadratic and the factor k/n are applied in place.
    Each block is a view of one block-sized buffer that the next block
    overwrites: a caller copies or reduces it before asking for the next.
    """
    block = errors.BLOCK
    buf = np.empty(min(block, n - 1))
    tail = 0.0
    for hi in range(n - 1, 0, -block):
        lo = max(hi - block + 1, 1)
        k = np.arange(lo, hi + 1, dtype=np.float64)
        values = np.divide(3.0, k, out=buf[:hi - lo + 1])
        values[-1] += tail
        np.cumsum(values[::-1], out=values[::-1])
        tail = values[0]
        poly = np.subtract(n, k)
        poly *= k + (9 - 5 * n)
        poly /= 2 * (n - 1) * (n - 2)
        values += poly
        values *= k
        values /= n
        if not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails both
            raise NonFinite(f"prob left [0, 1] for n={n}")
        yield lo, values


def top3_table(n: int) -> Top3Table:
    """Fill prob[0..n] for the top-3 objective in O(n) time, in closed form.

    Copies the blocks of ``_prob_blocks``; holds the 8-byte-per-entry table
    and block-sized scratch.  Agrees with the sequential recurrence to
    ~1e-14 for n <= 1e5.  Refuses, before allocating, the n ``_check_n`` refuses.
    """
    n = _check_n(n)
    (prob,) = copy_blocks(_prob_blocks(n), n + 1)
    prob[n] = 0.0
    prob[0] = 3.0 / n
    prob.flags.writeable = False
    return Top3Table(n=n, prob=prob)


def optimal_policy_top3(n: int) -> OptimalPolicy:
    """Best threshold in 0..n-1 for the top-3 objective; smallest k on ties.

    Reduces the table's blocks as they are made, so it holds no n-sized
    array, and refuses the same n as ``top3_table``.
    """
    n = _check_n(n)
    pol = OptimalPolicy.first_max(_prob_blocks(n))
    return pol if pol.value > 3.0 / n else OptimalPolicy(k_n=0, value=3.0 / n)
