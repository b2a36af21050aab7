"""Exact brute-force probabilities on tiny instances.

These enumerations are the ground truth the fast solvers and the simulator
are checked against.  Everything is computed in exact rational arithmetic,
so comparisons at 1e-12 are meaningful.

For the re-arrival model the enumeration walks one reappearance subset of
each size s (weighted C(n, s) p^s (1-p)^(n-s), as candidates are
exchangeable), every rank assignment, and every arrangement of the
appearance tokens (uniform over the multiset, each candidate's earlier
token being its first appearance).  The fresh-leader coin is handled
analytically by branching into accept (weight 1-p) and continue (weight p),
so every probability is a polynomial in p and one enumeration per n serves
every p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, zip_longest
from math import comb, factorial

from . import top3
from .errors import TooLarge
from .reappearance import ProblemSpec, _check_buildable, check_k

__all__ = ["ExactResult", "exact_top3", "exact_reappearance"]

_MAX_TOP3_N = 8
_MAX_REAPPEAR_N = 4


@dataclass(frozen=True)
class ExactResult:
    probability: Fraction
    instance: tuple


def exact_top3(n: int, k: int) -> ExactResult:
    """Top-3 success probability of threshold k, by full permutation sweep."""
    n = top3._check_n(n)  # checked outside the cache, where True and 1.0 would find 1's entry
    if n > _MAX_TOP3_N:
        raise TooLarge(f"exact top-3 enumeration is limited to n <= {_MAX_TOP3_N}")
    return _exact_top3(n, top3.check_k(k, n))


@lru_cache(maxsize=None)
def _exact_top3(n: int, k: int) -> ExactResult:
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
    One enumeration per n serves every p and k.
    """
    n = _check_buildable(ProblemSpec(n, p))[0]
    if n > _MAX_REAPPEAR_N:
        raise TooLarge(f"exact re-arrival enumeration is limited to n <= {_MAX_REAPPEAR_N}")
    k, p = check_k(k, n), Fraction(p)
    probability = Fraction(0)
    for c in reversed(_reappearance_polynomials(n)[k - 1]):
        probability = probability * p + c
    return ExactResult(probability=probability, instance=(n, p, k, "best"))


@lru_cache(maxsize=None)
def _reappearance_polynomials(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Success probabilities of the thresholds k = 1..n as polynomials in p.

    One enumeration serves every p: a walk's probability is a polynomial in
    p with integer coefficients, and so is each subset weight.  Within one
    reappearance subset every (arrangement, ranks) pair has the same
    weight, so the walks are summed first and weighted once.  Every rank
    assignment is enumerated, so candidates are exchangeable: all C(n, s)
    subsets of s returning candidates give the same sums, and only the
    subset {0, ..., s-1} is walked.  Coefficients are listed from p^0 up.
    """
    totals = [[Fraction(0)] * (2 * n + 1) for _ in range(n)]
    weight_seen = ()
    for s in range(n + 1):
        # C(n, s) p^s (1 - p)^(n - s)
        w_subsets = [0] * s + [comb(n, s) * comb(n - s, j) * (-1) ** j for j in range(n - s + 1)]
        weight_seen = _add(weight_seen, w_subsets)
        tokens = tuple(sorted([*range(n), *range(s)]))
        arrangements = sorted(set(permutations(tokens)))
        assert len(arrangements) == factorial(n + s) // 2 ** s
        sums = [[0] * (n + 1) for _ in range(n)]  # a walk meets at most n coins
        for arrangement in arrangements:
            appearance = _appearance_numbers(arrangement)
            for ranks in permutations(range(1, n + 1)):
                for k, acc in enumerate(sums, start=1):
                    for i, c in enumerate(_walk(arrangement, appearance, ranks, k, 0, None, 0)):
                        acc[i] += c
        count = len(arrangements) * factorial(n)
        for total, hits in zip(totals, sums):
            for i, c in enumerate(_mul(w_subsets, hits)):
                total[i] += Fraction(c, count)
    assert weight_seen == (1,) + (0,) * n
    return tuple(tuple(total) for total in totals)


def _add(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _appearance_numbers(arrangement):
    seen: dict[int, int] = {}
    out = []
    for c in arrangement:
        seen[c] = seen.get(c, 0) + 1
        out.append(seen[c])
    return tuple(out)


def _walk(arrangement, appearance, ranks, k, t, lead, distinct) -> tuple[int, ...]:
    """Success probability continuing from event t, as coefficients of p^0, p^1, ...

    Branches on the coin: a fresh leader is accepted w.p. 1 - p and turned
    down, becoming the leader, w.p. p.
    """
    if t == len(arrangement):
        return ()
    c = arrangement[t]
    second = appearance[t] == 2
    rank = ranks[c]
    lead_rank = ranks[lead] if lead is not None else None
    better = lead is None or rank < lead_rank

    if distinct < k:
        if better:
            lead = c
        nxt = distinct + (0 if second else 1)
        return _walk(arrangement, appearance, ranks, k, t + 1, lead, nxt)

    if second and c == lead:
        return (1,) if rank == 1 else ()
    if better:
        if second:
            return (1,) if rank == 1 else ()
        keep = (0, *_walk(arrangement, appearance, ranks, k, t + 1, c, distinct))
        return _add(keep, (1, -1)) if rank == 1 else keep
    return _walk(arrangement, appearance, ranks, k, t + 1, lead, distinct)
