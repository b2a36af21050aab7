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

The thresholds 1..n-1 fall into segments of ``_SEGMENT`` thresholds,
counted down from n-1.  Within a segment the harmonic tail is one running
sum of 3/j, carried from block to block; each segment starts it from its
exact tail 3 (H_{n-1} - H_hi) at its top threshold hi, in closed form
(``_harmonic_gap``), so a segment's values do not depend on the segments
above it.  The top segment starts from 0, so up to n = 32769 the table is
one whole-table sum.

prob[k] is unimodal in k, so the optimum needs only the segment that holds
it.  prob[k] is a weighted average of 1 - q(k) and prob[k+1], with weight
1/(k+1) > 0 on the first, so prob[k] >= prob[k+1] exactly when
prob[k+1] <= 1 - q(k).  1 - q(k) never decreases in k, so then
prob[k+1] <= 1 - q(k+1) too, and since prob[k+1] is a weighted average of
1 - q(k+1) and prob[k+2], with weight (k+1)/(k+2) > 0 on the second,
prob[k+2] <= 1 - q(k+1), that is prob[k+1] >= prob[k+2].  So
{k : prob[k] >= prob[k+1]} is an up-set {k*, ..., n-1} (it holds n-1, as
prob[n] = 0): prob rises strictly up to k* and never rises after it, and
k* is the first maximum.  A segment's first maximum off the segment's
edges is therefore k*, and one on an edge is k* unless the neighbouring
segment beyond that edge does better; ``optimal_policy_top3`` starts at
the segment holding x* n and steps across edges until neither neighbour
does better.  Rounding can break unimodality near the peak, where
neighbours differ by about 6 (k - k*) / n^2: a segment's running sum
drifts from the next segment's anchor by up to about 5e-14 (measured at
n = 1e7 and 6e7), which near n = 9e7 can move the computed maximum a few
thresholds across an edge.  So a first maximum within ``_EDGE``
thresholds of an edge also tries the neighbour.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .asymptotics import optimal_x_top3
from .errors import DegenerateInstance, DomainError, IndexOutOfRange, InvalidSpec, NonFinite
from .reappearance import OptimalPolicy, copy_blocks, scan

__all__ = ["Top3Table", "top3_table", "optimal_policy_top3"]


@dataclass(frozen=True)
class Top3Table:
    """Success probability of the threshold-k rule, prob[k] for k = 0..n."""

    n: int
    prob: np.ndarray


def check_n(n) -> int:
    """The top-3 n as an int: InvalidSpec, DegenerateInstance below 4, DomainError past the limit."""
    n = errors.integer("n", n, error=InvalidSpec)
    if n < 4:
        raise DegenerateInstance(f"top-3 objective is degenerate for n < 4, got n={n}")
    if n > errors.MAX_N_TOP3:
        raise DomainError(f"top-3 model accepts n <= {errors.MAX_N_TOP3}, got n={n}")
    return n


def check_k(k, n: int) -> int:
    """The threshold k as an int: DomainError unless an integer, IndexOutOfRange outside 0..n-1."""
    return errors.integer("threshold k", k, 0, n - 1, IndexOutOfRange, DomainError)


# Thresholds per segment, counted down from k = n-1.  A constant of its
# own, so that no table depends on errors.BLOCK.
_SEGMENT = 1 << 15

# A segment's first maximum this close to an edge tries the neighbour
# beyond it (module docstring: rounding moves the maximum a few thresholds).
_EDGE = 64

# Smallest argument at which _harmonic_gap uses the Euler-Maclaurin series.
_SERIES_MIN = 64


def _harmonic_gap(a: int, b: int) -> float:
    """H_a - H_b for integers a >= b >= 1, in closed form.

    With m = max(b, min(a, 64)), the shift H_b = H_m - sum_{j=b+1}^{m} 1/j
    leaves H_a - H_m = ln(a/m) + e(a) - e(m), where
    e(m) = 1/(2m) - 1/(12m^2) + 1/(120m^4) - 1/(252m^6) are the
    Euler-Maclaurin terms of H_m - ln(m) - gamma; from m = 64 on the
    next term is below 1/(240 m^8) < 2e-17.  ``math.fsum`` adds the parts.
    """
    m = max(b, min(a, _SERIES_MIN))

    def series(m: int) -> float:
        u = 1.0 / (m * m)
        return 0.5 / m - u * (1 / 12 - u * (1 / 120 - u / 252))

    shift = [1.0 / j for j in range(b + 1, m + 1)]
    return math.fsum([*shift, math.log1p((a - m) / m), series(a), -series(m)])


def _last_segment(n: int) -> int:
    """Index of the segment that holds prob[0] = 3/n alone, below the ones of k = 1..n-1."""
    return -(-(n - 1) // _SEGMENT)


def _segment(n: int, s: int) -> tuple[int, int]:
    """(lo, hi), the lowest and highest threshold of segment s."""
    if s == _last_segment(n):
        return 0, 0
    hi = n - 1 - s * _SEGMENT
    return max(hi - _SEGMENT + 1, 1), hi


def _prob_blocks(n: int, segments=None):
    """Yield (lo, prob[lo..hi]) in ascending k, block by block, over ``segments`` (default all).

    Segments come in the order given, top down by default, and each yields
    its blocks from its top.  A segment's harmonic tail
    3 (H_{n-1} - H_{k-1}) is one ``scan`` of 3/j started from its anchor
    3 (H_{n-1} - H_hi) and carried from block to block, so every block is
    bit-identical to the same rows of one sum over the segment, at any
    ``errors.BLOCK``.  The quadratic and the factor k/n are applied in
    place.  The closed form holds from k = 1, so the last segment is
    prob[0] = 3/n alone.
    Each block is a view of one block-sized buffer that the next block
    overwrites: a caller copies or reduces it before asking for the next.
    """
    last = _last_segment(n)
    buf = np.empty(min(errors.BLOCK, _SEGMENT, n - 1))
    for s in range(last + 1) if segments is None else segments:
        if s == last:
            buf[0] = 3.0 / n
            yield 0, buf[:1]
            continue
        bottom, top = _segment(n, s)
        tail = 3.0 * _harmonic_gap(n - 1, top) if s else 0.0
        for hi in range(top, bottom - 1, -errors.BLOCK):
            lo = max(hi - errors.BLOCK + 1, bottom)
            k = np.arange(lo, hi + 1, dtype=np.float64)
            values = np.divide(3.0, k, out=buf[:hi - lo + 1])
            tail = scan(np.add, values, tail, reverse=True)
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
    ~1e-14 for n <= 1e5.  Refuses, before allocating, the n ``check_n`` refuses.
    """
    n = check_n(n)
    (prob,) = copy_blocks(_prob_blocks(n), n + 1)
    prob[n] = 0.0
    prob.flags.writeable = False
    return Top3Table(n=n, prob=prob)


def optimal_policy_top3(n: int) -> OptimalPolicy:
    """Best threshold in 0..n-1 for the top-3 objective; smallest k on ties.

    Reduces the segment that holds round(x* n), x* the maximiser of the
    large-n limit, and moves to a neighbouring segment while the first
    maximum lies within ``_EDGE`` of the edge next to it and the neighbour
    does better (at least as well below, for the smallest k); unimodality
    (module docstring) makes that the first maximum of the whole table.
    Reduces the blocks as they are made, so it holds no n-sized array, and
    refuses the same n as ``top3_table``.
    """
    n = check_n(n)
    last = _last_segment(n)
    if last == 1:  # k = 1..n-1 are one segment
        return OptimalPolicy.first_max(_prob_blocks(n))

    @functools.cache
    def best(s: int) -> OptimalPolicy:
        return OptimalPolicy.first_max(_prob_blocks(n, (s,)))

    s = (n - 1 - round(optimal_x_top3().x_star * n)) // _SEGMENT
    while (s < last and best(s).k_n - _segment(n, s)[0] < _EDGE
           and best(s + 1).value >= best(s).value):
        s += 1
    while (s > 0 and _segment(n, s)[1] - best(s).k_n < _EDGE
           and best(s - 1).value > best(s).value):
        s -= 1
    return best(s)
