"""Exact brute-force probabilities on tiny instances.

These enumerations are the ground truth the fast solvers and the simulator
are checked against.  Everything is computed in exact rational arithmetic,
so comparisons at 1e-12 are meaningful.

For the re-arrival model the enumeration walks one reappearance subset of
each size s (weighted C(n, s) p^s (1-p)^(n-s), as candidates are
exchangeable), every rank assignment, and every arrangement of the
appearance tokens (uniform over the multiset, each candidate's earlier
token being its first appearance).  The fresh-leader coin is handled
analytically by branching into accept (weight 1-p) and continue (weight p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from .errors import IndexOutOfRange, InvalidSpec, TooLarge
from .top3 import _check_n as _check_top3_n

__all__ = ["ExactResult", "exact_top3", "exact_reappearance"]

_MAX_TOP3_N = 8
_MAX_REAPPEAR_N = 4


@dataclass(frozen=True)
class ExactResult:
    probability: Fraction
    instance: tuple


@lru_cache(maxsize=None)
def exact_top3(n: int, k: int) -> ExactResult:
    """Top-3 success probability of threshold k, by full permutation sweep."""
    if n > _MAX_TOP3_N:
        raise TooLarge(f"exact top-3 enumeration is limited to n <= {_MAX_TOP3_N}")
    _check_top3_n(n)
    if not 0 <= k <= n - 1:
        raise IndexOutOfRange(f"k={k} outside 0..{n - 1}")

    hits = 0
    for perm in permutations(range(1, n + 1)):
        best = n + 1
        for t, r in enumerate(perm):
            if t >= k and r < best:
                hits += r <= 3
                break
            best = min(best, r)
    return ExactResult(
        probability=Fraction(hits, factorial(n)), instance=(n, None, k, "top3")
    )


def exact_reappearance(n: int, p, k: int) -> ExactResult:
    """Rank-1 success probability of the re-arrival policy at threshold k.

    ``p`` may be a Fraction, int or float; floats are taken at their exact
    binary value.  Limited to n <= 4 (the token-arrangement count explodes).
    One enumeration per (n, p) serves every k.
    """
    if n > _MAX_REAPPEAR_N:
        raise TooLarge(f"exact re-arrival enumeration is limited to n <= {_MAX_REAPPEAR_N}")
    if n < 2:
        raise InvalidSpec(f"need n >= 2, got n={n}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidSpec(f"need 0 <= p <= 1, got p={p}")
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 1..{n}")
    return ExactResult(probability=_reappearance_by_k(n, p)[k - 1], instance=(n, p, k, "best"))


@lru_cache(maxsize=None)
def _reappearance_by_k(n: int, p: Fraction) -> tuple[Fraction, ...]:
    """Success probabilities of the thresholds k = 1..n, from one enumeration.

    Within one reappearance subset every (arrangement, ranks) pair has the
    same weight, so the walks are summed first and weighted once.  Every
    rank assignment is enumerated, so candidates are exchangeable: all
    C(n, s) subsets of s returning candidates give the same sums, and only
    the subset {0, ..., s-1} is walked.
    """
    totals = [Fraction(0)] * n
    weight_seen = Fraction(0)
    for s in range(n + 1):
        w_subsets = comb(n, s) * p ** s * (1 - p) ** (n - s)
        weight_seen += w_subsets
        if w_subsets == 0:
            continue
        tokens = tuple(sorted([*range(n), *range(s)]))
        arrangements = sorted(set(permutations(tokens)))
        assert len(arrangements) == factorial(n + s) // 2 ** s
        sums = [0] * n
        for arrangement in arrangements:
            appearance = _appearance_numbers(arrangement)
            for ranks in permutations(range(1, n + 1)):
                for k in range(1, n + 1):
                    sums[k - 1] += _walk(arrangement, appearance, ranks, k, p, 0, None, 0)
        weight = w_subsets / (len(arrangements) * factorial(n))
        totals = [total + weight * hits for total, hits in zip(totals, sums)]
    assert weight_seen == 1
    return tuple(totals)


def _appearance_numbers(arrangement):
    seen: dict[int, int] = {}
    out = []
    for c in arrangement:
        seen[c] = seen.get(c, 0) + 1
        out.append(seen[c])
    return tuple(out)


def _walk(arrangement, appearance, ranks, k, p, t, lead, distinct):
    """Success probability continuing from event t; branches on the coin."""
    if t == len(arrangement):
        return 0
    c = arrangement[t]
    second = appearance[t] == 2
    rank = ranks[c]
    lead_rank = ranks[lead] if lead is not None else None
    better = lead is None or rank < lead_rank

    if distinct < k:
        if better:
            lead = c
        nxt = distinct + (0 if second else 1)
        return _walk(arrangement, appearance, ranks, k, p, t + 1, lead, nxt)

    if second and c == lead:
        return int(rank == 1)
    if better:
        if second:
            return int(rank == 1)
        keep = p * _walk(arrangement, appearance, ranks, k, p, t + 1, c, distinct)
        return 1 - p + keep if rank == 1 else keep
    return _walk(arrangement, appearance, ranks, k, p, t + 1, lead, distinct)
