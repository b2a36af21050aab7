"""Classical threshold rule scored against a relaxed, top-3 objective.

Candidates arrive exactly once in uniformly random order.  The rule rejects
the first k arrivals and accepts the next arrival that beats everything seen
so far; the hire counts as a success when its absolute rank is 1, 2 or 3.

prob[k] satisfies the backward recurrence

    prob[k] = (1 - q(k)) / (k + 1) + k / (k + 1) * prob[k + 1],  prob[n] = 0,

where q(k) = C(n-3, k+1) / C(n, k+1) is the chance that none of the first
k+1 arrivals ranks in the top three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstance, IndexOutOfRange, NonFinite, check_working_set
from .reappearance import OptimalPolicy

__all__ = ["Top3Table", "binom_survival_ratio", "top3_table", "optimal_policy_top3"]


@dataclass(frozen=True)
class Top3Table:
    """Success probability of the threshold-k rule, prob[k] for k = 0..n."""

    n: int
    prob: np.ndarray


def _check_n(n: int):
    if n < 4:
        raise DegenerateInstance(f"top-3 objective is degenerate for n < 4, got n={n}")


def binom_survival_ratio(n: int, k: int) -> float:
    """Probability that none of the first k+1 arrivals is a top-3 candidate.

    Evaluates C(n-3, k+1) / C(n, k+1) in the cancelled product form
    ((n-k-1)/n) * ((n-k-2)/(n-1)) * ((n-k-3)/(n-2)); every factor is at
    most 1, so the computation cannot overflow for n up to 1e7.  The result
    is exactly 0 whenever k+1 > n-3.
    """
    _check_n(n)
    if not 0 <= k <= n - 1:
        raise IndexOutOfRange(f"k={k} outside 0..{n - 1}")
    r = ((n - k - 1) / n) * ((n - k - 2) / (n - 1)) * ((n - k - 3) / (n - 2))
    return r + 0.0  # normalise -0.0 from the zero factor at the tail


def top3_table(n: int) -> Top3Table:
    """Fill prob[0..n] for the top-3 objective in O(n) time.

    The backward recurrence telescopes to prob[k] = k * sum_{j>=k} g[j] / j
    with g[j] = (1 - q(j)) / (j + 1), which a reversed cumulative sum
    evaluates in vectorised form (agrees with the sequential recurrence to
    ~1e-14 and reproduces its argmax).

    The expressions are evaluated in place, in two work arrays beside the
    result, to halve the peak memory at n = 1e7: a process building that
    table peaks at about 270 MiB, against 570 MiB with a fresh temporary
    per operation.  Each operation and its order are those of the plain
    array expression, and every integer operand is exact, so the values
    are the same bit for bit.

    Raises DomainError, before allocating, for an n whose arrays (25 bytes
    per entry, measured) would exceed ``errors.MAX_WORKING_BYTES``.
    """
    _check_n(n)
    check_working_set(n, 25, "top3_table")
    prob = np.empty(n + 1)
    tmp = prob[:n]                      # scratch until it takes the tail sums
    d = np.arange(n, 0, -1, dtype=np.float64)  # n - k for k = 0..n-1
    r = np.subtract(d, 1.0)
    r /= n
    np.subtract(d, 2.0, out=tmp)
    tmp /= n - 1
    r *= tmp
    np.subtract(d, 3.0, out=tmp)
    tmp /= n - 2
    r *= tmp
    r += 0.0                            # normalise -0.0 from the zero factor at the tail
    g = np.subtract(1.0, r, out=r)
    k1 = np.subtract(n + 1, d, out=d)   # k + 1
    g /= k1

    g0 = g[0]
    g[0] = 0.0
    g[1:] /= k1[:-1]                    # terms g[j] / j of the tail sums (k1[j-1] = j)
    np.cumsum(g[::-1], out=tmp[::-1])
    prob[1:n] *= k1[:-1]                # prob[k] = k * tail[k]
    prob[0] = g0
    prob[n] = 0.0

    if not ((prob >= 0.0).all() and (prob <= 1.0).all()):
        raise NonFinite(f"prob left [0, 1] for n={n}")
    prob.flags.writeable = False
    return Top3Table(n=n, prob=prob)


def optimal_policy_top3(n: int) -> OptimalPolicy:
    """Best threshold in 0..n-1 for the top-3 objective; smallest k on ties."""
    table = top3_table(n)
    k_n = int(np.argmax(table.prob[:n]))
    return OptimalPolicy(k_n=k_n, value=float(table.prob[k_n]))
