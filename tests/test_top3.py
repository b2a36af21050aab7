from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from secretarylab import (
    OptimalPolicy,
    ProblemSpec,
    build_tables,
    exact_top3,
    optimal_policy_top3,
    optimal_x_top3,
    top3_limit,
    top3_table,
)
from secretarylab.errors import DegenerateInstance, InvalidSpec


@pytest.mark.parametrize("n", [5, 37, 1000])
def test_recurrence_identity(n):
    prob = top3_table(n).prob
    for k in range(n - 1, -1, -1):
        q = max(0.0, ((n - k - 1) / n) * ((n - k - 2) / (n - 1)) * ((n - k - 3) / (n - 2)))
        step = (1.0 - q) / (k + 1) + k / (k + 1) * prob[k + 1]
        assert prob[k] == pytest.approx(step, abs=1e-12)


def array_expression_table(n):
    """The telescoped recurrence prob[k] = k * sum_{j>=k} (1 - q(j)) / (j (j+1))
    as plain array expressions, independent of top3_table's closed form."""
    karr = np.arange(n, dtype=np.float64)
    r = ((n - karr - 1.0) / n) * ((n - karr - 2.0) / (n - 1)) * ((n - karr - 3.0) / (n - 2))
    r += 0.0
    g = (1.0 - r) / (karr + 1.0)
    terms = np.zeros(n)
    terms[1:] = g[1:] / karr[1:]
    tail = np.cumsum(terms[::-1])[::-1]
    prob = np.empty(n + 1)
    prob[0] = g[0]
    prob[1:n] = np.arange(1, n) * tail[1:]
    prob[n] = 0.0
    return prob


def sequential_table(n):
    """The backward recurrence one k at a time, from prob[n] = 0."""
    prob = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        q = max(0.0, ((n - k - 1) / n) * ((n - k - 2) / (n - 1)) * ((n - k - 3) / (n - 2)))
        prob[k] = (1.0 - q) / (k + 1) + k / (k + 1) * prob[k + 1]
    return np.array(prob)


@pytest.mark.parametrize("n", [4, 5, 10, 1000, 10**5])
def test_closed_form_matches_array_expression(n):
    prob = top3_table(n).prob
    ref = array_expression_table(n)
    assert np.abs(prob - ref).max() <= 1e-13
    assert np.argmax(prob[:n]) == np.argmax(ref[:n])


@pytest.mark.parametrize("n", [4, 5, 10, 1000, 10**5])
def test_closed_form_matches_sequential_recurrence(n):
    assert np.abs(top3_table(n).prob - sequential_table(n)).max() <= 1e-13


@pytest.mark.parametrize("n", [4, 10, 100, 999, 10**5])
def test_boundary_rows(n):
    prob = top3_table(n).prob
    assert prob[n] == 0.0
    assert abs(prob[0] - 3.0 / n) <= 1e-14
    assert abs(prob[n - 1] - 1.0 / n) <= 1e-14
    assert (prob >= 0.0).all() and (prob <= 1.0).all()


def test_degenerate_instances():
    for n in [0, 1, 2, 3]:
        with pytest.raises(DegenerateInstance):
            top3_table(n)
        with pytest.raises(DegenerateInstance):
            optimal_policy_top3(n)
    with pytest.raises(InvalidSpec):
        optimal_policy_top3(100.0)


def test_published_values():
    assert abs(top3_table(10).prob[2] - 0.6640) <= 1e-4
    assert abs(top3_table(100).prob[26] - 0.6008) <= 1e-4


def test_exact_oracle_n5():
    prob = top3_table(5).prob
    for k in range(5):
        assert abs(prob[k] - float(exact_top3(5, k).probability)) <= 1e-12


@pytest.mark.parametrize("n", [10, 50])
def test_dominates_best_only_objective(n):
    top3 = top3_table(n).prob
    best_only = build_tables(ProblemSpec(n=n, p=0.0)).f
    for k in range(1, n):
        assert top3[k] >= best_only[k] - 1e-15
        if 0 < k < n - 1:
            assert top3[k] > best_only[k]


def test_converges_to_closed_form():
    for n in (10**3, 10**4, 10**5):
        prob = top3_table(n).prob
        for x in (0.1, 0.26, 0.5, 0.9):
            assert abs(prob[int(n * x)] - top3_limit(x)) <= 10.0 / n


@pytest.mark.parametrize(
    "n,kn,value,tol",
    [(1000, 260, 0.5953, 1e-4), (10**4, 2599, 0.59479, 1e-5)],
)
def test_optimal_policy(n, kn, value, tol):
    pol = optimal_policy_top3(n)
    assert pol.k_n == kn
    assert abs(pol.value - value) <= tol
    prob = top3_table(n).prob
    assert all(pol.value >= prob[k] for k in range(n))
    assert pol.k_n == int(np.argmax(prob[:n]))


def exact_table(n):
    """prob[0..n-1] of the closed form in exact fractions."""
    harmonic = list(accumulate((Fraction(1, j) for j in range(1, n)), initial=Fraction(0)))
    return [Fraction(3, n)] + [
        Fraction(k, n) * (3 * (harmonic[n - 1] - harmonic[k - 1])
                          + Fraction((n - k) * (k - 5 * n + 9), 2 * (n - 1) * (n - 2)))
        for k in range(1, n)
    ]


def decimal_prob(n, k):
    """prob[k] of the closed form at 40 digits, independent of the float evaluation.

    H_{n-1} - H_{k-1} is a direct sum of 1/j up to 64, and above that
    ln(a/m) plus the Euler-Maclaurin terms through m^-8 (the first term left
    out is below 1e-20 at m = 64).
    """
    with localcontext() as ctx:
        ctx.prec = 40
        if k == 0:
            return Decimal(3) / n
        a, b = n - 1, k - 1
        m = min(max(b, 64), a)
        gap = sum(Decimal(1) / j for j in range(b + 1, m + 1))
        if a > m:
            def e(x):
                u = 1 / Decimal(x) ** 2
                return 1 / Decimal(2 * x) - u * (Decimal(1) / 12 - u * (
                    Decimal(1) / 120 - u * (Decimal(1) / 252 - u / 240)))
            gap += (Decimal(a) / m).ln() + e(a) - e(m)
        quadratic = Decimal((n - k) * (k - 5 * n + 9)) / (2 * (n - 1) * (n - 2))
        return Decimal(k) / n * (3 * gap + quadratic)


def test_table_matches_exact_fractions():
    for n in range(4, 65):
        prob = top3_table(n).prob
        for k, exact in enumerate(exact_table(n)):
            assert abs(Fraction(prob[k]) - exact) <= 1e-15, (n, k)


def test_decimal_reference_matches_exact_fractions():
    n = 3000
    exact = exact_table(n)
    for k in (0, 1, 64, 65, 66, 780, 2999):
        assert abs(Fraction(decimal_prob(n, k)) - exact[k]) <= 1e-19, k


@pytest.mark.parametrize("n", [65537, 10**6, 10**7])
def test_table_matches_a_40_digit_evaluation(n):
    prob = top3_table(n).prob
    mid = round(optimal_x_top3().x_star * n)
    ks = {0, 1, 2, 63, 64, 65, 66, 1000, mid, n // 2, n - 1} | {n * i // 7 for i in range(1, 7)}
    for k in sorted(ks):
        assert abs(Decimal(prob[k]) - decimal_prob(n, k)) <= 1e-15, k
    pol = optimal_policy_top3(n)
    assert pol.value == prob[pol.k_n]


def test_policy_is_the_table_first_maximum_near_x_star():
    x_star = optimal_x_top3().x_star
    for n in range(4, 3001):
        prob = top3_table(n).prob
        k = int(np.argmax(prob[:n]))
        assert optimal_policy_top3(n) == OptimalPolicy(k_n=k, value=prob[k]), n
        assert abs(k - round(x_star * n)) <= 2, n
    for n in (10**e for e in range(1, 8)):  # the rows of Table 2
        assert abs(optimal_policy_top3(n).k_n - round(x_star * n)) <= 2, n


@pytest.mark.parametrize("n,k", [(59_998_566, 15_597_927), (89_045_848, 23_149_397)])
def test_optimum_certified_at_40_digits(n, k):
    # two n at which a float running sum of 3/j once drifted enough to
    # return k = 15597925 and 23149400
    assert optimal_policy_top3(n).k_n == k
    below, at, above = (decimal_prob(n, j) for j in (k - 1, k, k + 1))
    assert below < at >= above
