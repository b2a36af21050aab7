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
``_prob_blocks`` evaluates it block by block, each threshold on its own
(``_harmonic_gap``), so no value depends on another.  At k = x n,
H_{n-1} - H_{k-1} tends to -ln x, and the closed form to the limit curve
of ``asymptotics.top3_limit``,

    P(x) = -3 x ln(x) + 3 x^2 - x^3/2 - 5 x/2.

prob[k] is unimodal in k, so the optimum needs only the thresholds around
it.  prob[k] is a weighted average of 1 - q(k) and prob[k+1], with weight
1/(k+1) > 0 on the first, so prob[k] >= prob[k+1] exactly when
prob[k+1] <= 1 - q(k).  1 - q(k) never decreases in k, so then
prob[k+1] <= 1 - q(k+1) too, and since prob[k+1] is a weighted average of
1 - q(k+1) and prob[k+2], with weight (k+1)/(k+2) > 0 on the second,
prob[k+2] <= 1 - q(k+1), that is prob[k+1] >= prob[k+2].  So
{k : prob[k] >= prob[k+1]} is an up-set {k*, ..., n-1} (it holds n-1, as
prob[n] = 0): prob rises strictly up to k* and never rises after it, and
k* is the first maximum.  The first maximum of any run of thresholds that
holds k* is therefore k*; ``optimal_policy_top3`` reduces the run within
``_WINDOW`` of x* n, x* the maximiser of P.  Each float value lies within
about 6e-16 of the closed form, and next to the peak neighbours differ by
about 6 (k - k*) / n^2, so near n = 9e7 a neighbour of k* within rounding
of the maximum could still be returned; a 40-digit evaluation confirms
k* at the n the tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .asymptotics import optimal_x_top3
from .errors import DegenerateInstance, DomainError, IndexOutOfRange, InvalidSpec, NonFinite
from .reappearance import OptimalPolicy, copy_blocks

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


# Smallest argument at which _harmonic_gap uses the Euler-Maclaurin series.
_SERIES_MIN = 64

# H_64 - H_b for b = 0..64, each one math.fsum of 1/j.
_TAILS = np.array([math.fsum([1.0 / j for j in range(b + 1, _SERIES_MIN + 1)])
                   for b in range(_SERIES_MIN + 1)])

# Thresholds on either side of round(x* n) that optimal_policy_top3 reduces:
# k* - x* n stayed within [-1.04, 0.11] at n = 4..3000, every 997th n up to
# 3e5 and nine larger n up to MAX_N_TOP3.
_WINDOW = 8

_X_STAR = optimal_x_top3().x_star


def _series(m, v=None, u=None):
    """e(m) = 1/(2m) - 1/(12m^2) + 1/(120m^4) - 1/(252m^6), the Euler-Maclaurin terms of H_m - ln(m) - gamma.

    Horner's rule in v = 1/m.  Given arrays ``v`` and ``u`` of an array m's
    shape, they take 1/m and 1/m^2 and e(m) is written over m; without them
    a number m gives a Python float, as numpy's ufuncs would take about a
    microsecond a step on it.
    """
    if v is None:
        v = 1.0 / m
        u = v * v
        e = u * (-1 / 252)
    else:
        np.divide(1.0, m, out=v)
        np.multiply(v, v, out=u)
        e = np.multiply(u, -1 / 252, out=m)
    e += 1 / 120
    e *= u
    e -= 1 / 12
    e *= v
    e += 0.5
    e *= v
    return e


def _harmonic_gap(a: int, b: np.ndarray, out: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """H_a - H_b for an integer a and ascending integer-valued floats 0 <= b <= a, in closed form, into ``out``.

    From b = 64 on, H_a - H_b = ln(a/b) + e(a) - e(b); the next term is
    below 1/(240 b^8) < 2e-17.  Below it, H_a - H_b = (H_64 - H_b) + (H_a - H_64),
    the first term from ``_TAILS`` and the second from the series at a >= 64
    or from ``_TAILS`` at a < 64.  ``v`` and ``u`` are scratch of b's shape,
    and the entries of b from 64 on are overwritten.
    """
    # a searchsorted call takes about a microsecond, and most b lie past 64
    cut = int(np.searchsorted(b, _SERIES_MIN)) if b[0] < _SERIES_MIN else 0
    big, gap = b[cut:], out[cut:]
    np.subtract(a, big, out=gap)
    gap /= big
    np.log1p(gap, out=gap)
    e = _series(big, v[cut:], u[cut:])
    e -= _series(a)
    gap -= e
    if cut:
        head = (math.log1p((a - _SERIES_MIN) / _SERIES_MIN) + (_series(a) - _series(_SERIES_MIN))
                if a >= _SERIES_MIN else -_TAILS[a])
        out[:cut] = _TAILS[b[:cut].astype(np.intp)] + head
    return out


def _prob_blocks(n: int, lo: int = 0, hi: int | None = None):
    """Yield (k0, prob[k0..k1]) over the thresholds lo..hi (default 0..n-1), block by block.

    Blocks come from the top down, each in ascending k, so that
    ``OptimalPolicy.first_max`` breaks ties toward the smallest k.  Each
    threshold is evaluated on its own, so the values do not depend on
    ``errors.BLOCK`` or on the range asked for.  The closed form holds from
    k = 1; at k = 0 its factor k/n vanishes, and prob[0] = 3/n is written in.
    Every block is written into one scratch, so a block's values are
    overwritten by the next.
    """
    hi = n - 1 if hi is None else hi
    # one scratch for every block, sized by the range so that a short one
    # stays small: block-sized arrays made afresh for each block were mapped
    # and faulted in again each time.  ks holds the top block's thresholds
    # and moves down a block at a time (exactly, as integers below 2**53).
    size = min(hi + 1 - lo, errors.BLOCK)
    ks = np.arange(hi + 1 - size, hi + 1, dtype=np.float64)
    scratch = np.empty((4, size))
    rows = (ks, scratch[0], scratch[1], scratch[2], scratch[3])  # iterating takes twice as long
    for top in range(hi, lo - 1, -errors.BLOCK):
        if top < hi:
            ks -= errors.BLOCK
        k0 = max(top + 1 - errors.BLOCK, lo)
        below = k0 - (top + 1 - size)  # thresholds under lo, on the last block alone
        k, values, b, s, t = (row[below:] for row in rows) if below else rows
        np.subtract(k, 1.0, out=b)
        if k0 == 0:
            b[0] = 0.0
        _harmonic_gap(n - 1, b, values, s, t)
        values *= 3.0
        poly = np.subtract(n, k, out=s)
        poly *= np.add(k, 9 - 5 * n, out=t)
        poly /= 2 * (n - 1) * (n - 2)
        values += poly
        values *= k
        values /= n
        if k0 == 0:
            values[0] = 3.0 / n
        if not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails both
            raise NonFinite(f"prob left [0, 1] for n={n}")
        yield k0, values


def top3_table(n: int) -> Top3Table:
    """Fill prob[0..n] for the top-3 objective in O(n) time, in closed form.

    Copies the blocks of ``_prob_blocks``; holds the 8-byte-per-entry table
    and block-sized scratch.  Each entry lies within about 6e-16 of the
    exact closed form (checked against exact fractions for n <= 64 and a
    40-digit evaluation up to n = 1e7).  Refuses, before allocating, the n
    ``check_n`` refuses.
    """
    n = check_n(n)
    (prob,) = copy_blocks(_prob_blocks(n), n + 1)
    prob[n] = 0.0
    prob.flags.writeable = False
    return Top3Table(n=n, prob=prob)


def optimal_policy_top3(n: int) -> OptimalPolicy:
    """Best threshold in 0..n-1 for the top-3 objective; smallest k on ties.

    Reduces the thresholds within ``_WINDOW`` of round(x* n), clipped to
    0..n-1, x* the maximiser of the large-n limit; unimodality (module
    docstring) makes their first maximum that of the whole table.  The
    value is the same float as ``top3_table(n).prob[k_n]``, and the policy
    refuses the same n.
    """
    n = check_n(n)
    mid = round(_X_STAR * n)
    return OptimalPolicy.first_max(_prob_blocks(n, max(mid - _WINDOW, 0), min(mid + _WINDOW, n - 1)))
