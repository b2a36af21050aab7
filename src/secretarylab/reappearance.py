"""Exact success probabilities for hiring when candidates may return once.

Each of n distinct candidates is interviewed at least once; after the first
interview a candidate returns for exactly one more interview with
probability p.  The threshold strategy observes the first k distinct
candidates without hiring, then accepts the first arrival that is either
the current leader returning, a fresh leader (accepted with probability
1-p), or a returning leader.

For a given (n, p) this module fills four tables over the threshold k in
linear time:

    phi[k]      P(hire the best | k distinct seen, leader seen once)
    psi[k]      P(hire the best | k distinct seen, leader seen twice)
    upsilon[k]  P(leader seen once when the k-th distinct candidate arrives)
    f[k]        overall success probability of threshold k,
                f = upsilon * phi + (1 - upsilon) * psi

phi and psi satisfy backward recurrences from phi[n] = p, psi[n] = 0;
upsilon satisfies a forward recurrence from upsilon[1] = 1.  At p = 0 the
model collapses to the classical best-choice problem, at p = 1 to the
guaranteed-return variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidSpec, NonFinite, check_working_set

__all__ = [
    "ProblemSpec",
    "DpTables",
    "OptimalPolicy",
    "build_tables",
    "success_probability",
    "optimal_policy",
]


@dataclass(frozen=True)
class ProblemSpec:
    """An instance of the re-arrival model: n candidates, return probability p."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec(f"need n >= 1, got n={self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidSpec(f"need 0 <= p <= 1, got p={self.p}")


@dataclass(frozen=True)
class OptimalPolicy:
    """A threshold and the success probability it achieves."""

    k_n: int
    value: float


@dataclass(frozen=True)
class DpTables:
    """Probability tables indexed by threshold k.

    phi and psi cover k = 0..n (index 0 is reached by the backward pass and
    kept for diagnostics).  upsilon and f are defined for k = 1..n; index 0
    holds NaN.  All arrays are read-only.
    """

    n: int
    p: float
    phi: np.ndarray
    psi: np.ndarray
    upsilon: np.ndarray
    f: np.ndarray


def _suffix_sums(terms: np.ndarray) -> np.ndarray:
    """s[i] = sum(terms[i:]) for i = 0..len(terms); the last entry is 0."""
    s = np.zeros(len(terms) + 1)
    np.cumsum(terms[::-1], out=s[-2::-1])
    return s


def build_tables(spec: ProblemSpec) -> DpTables:
    """Fill the phi/psi/upsilon/f tables for ``spec`` in O(n) time.

    Each recurrence is linear with coefficients that depend only on k:
    phi[k] = A[k] + B[k] phi[k+1], psi[k] = g[k] + k/(k+1) psi[k+1] with
    g[k] = (1-p)/n + p phi[k+1]/(k+1), and k upsilon[k] = 1 + E[k] (k-1)
    upsilon[k-1].  They telescope to closed forms, evaluated with reversed
    cumulative products and sums:

        phi[k]       = C[k] (p + sum_{j>=k} A[j]/C[j]),  C[k] = prod_{i=k}^{n-1} B[i]
        psi[k]       = k sum_{j>=k} g[j]/j
        k upsilon[k] = D[k] sum_{j<=k} 1/D[j],          D[k] = prod_{i=2}^{k} E[i]

    for k >= 1.  Row 0 of phi and psi is one explicit backward step, since
    B[0] = 0 at p = 0.  Against the sequential recurrences the tables agree
    to ~1e-15 at n = 100 and to 1.1e-12 at n = 2e5 and 6.8e-12 at n = 1e6
    (both at p = 0, the worst case), with the same argmax of f at every
    published n = 100 row and at n = 2e5 and 1e6.  At n = 1e6, p = 0 the
    closed form is the more accurate of the two: 1.6e-12 from an
    extended-precision sum, against 6.8e-12 for the sequential loop.

    Raises
    ------
    InvalidSpec
        If n < 2 (both recurrence directions must be nonempty).
    DomainError
        Before allocating, if the arrays (96 bytes per entry, measured) would
        exceed ``errors.MAX_WORKING_BYTES``.
    """
    n, p = spec.n, float(spec.p)
    if n < 2:
        raise InvalidSpec(f"need n >= 2 to build tables, got n={n}")
    check_working_set(n, 96, "build_tables")

    k = np.arange(n + 1, dtype=np.float64)
    kb = k[:n]  # the backward steps k = 0..n-1
    pa = p / ((1.0 + p) * (n - kb) + 1.0)
    A = (pa * kb + (1.0 - p) * (1.0 - pa)) / n
    B = (p + kb) * (1.0 - pa) / (kb + 1.0)

    C = np.ones(n + 1)
    C[1:n] = np.cumprod(B[:0:-1])[::-1]
    phi = np.empty(n + 1)
    phi[1:] = C[1:] * (p + _suffix_sums(A[1:] / C[1:n]))
    phi[0] = A[0] + B[0] * phi[1]

    g = (1.0 - p) / n + p * phi[1:] / (kb + 1.0)
    psi = np.empty(n + 1)
    psi[1:] = k[1:] * _suffix_sums(g[1:] / kb[1:])
    psi[0] = g[0]

    D = np.ones(n + 1)
    np.cumprod(1.0 - p / ((1.0 + p) * (n - k[2:] + 1.0) + 1.0), out=D[2:])
    ups = np.empty(n + 1)
    ups[0] = np.nan  # and so f[0]
    ups[1:] = D[1:] * np.cumsum(1.0 / D[1:]) / k[1:]

    f = ups * phi + (1.0 - ups) * psi

    for name, arr in (("phi", phi), ("psi", psi),
                      ("upsilon", ups[1:]), ("f", f[1:])):
        if not ((arr >= 0.0).all() and (arr <= 1.0).all()):
            raise NonFinite(f"{name} left [0, 1] for n={n}, p={p}")

    for arr in (phi, psi, ups, f):
        arr.flags.writeable = False
    return DpTables(n=n, p=p, phi=phi, psi=psi, upsilon=ups, f=f)


def success_probability(tables: DpTables, k: int) -> float:
    """Success probability of threshold ``k``: a pure lookup of f[k]."""
    if not 1 <= k <= tables.n:
        raise IndexOutOfRange(f"threshold k={k} outside 1..{tables.n}")
    return float(tables.f[k])


def optimal_policy(spec: ProblemSpec) -> OptimalPolicy:
    """Best threshold in 1..n and its success probability.

    Ties are broken toward the smallest threshold (stop earlier).
    """
    tables = build_tables(spec)
    k_n = int(np.argmax(tables.f[1:])) + 1
    return OptimalPolicy(k_n=k_n, value=float(tables.f[k_n]))
