from math import comb

import numpy as np
import pytest

from secretarylab import (
    ProblemSpec,
    binom_survival_ratio,
    build_tables,
    exact_top3,
    optimal_policy_top3,
    top3_limit,
    top3_table,
)
from secretarylab.errors import DegenerateInstance, DomainError, IndexOutOfRange, InvalidSpec


@pytest.mark.parametrize("n", [4, 5, 7, 10, 17, 100, 1000])
def test_ratio_matches_binomial_oracle(n):
    for k in range(n) if n <= 20 else list(range(10)) + [n // 2, n - 4, n - 3, n - 2, n - 1]:
        expected = comb(n - 3, k + 1) / comb(n, k + 1) if k + 1 <= n - 3 else 0.0
        assert binom_survival_ratio(n, k) == pytest.approx(expected, abs=1e-15)


def test_ratio_spot_values():
    assert binom_survival_ratio(10, 6) == pytest.approx(1 / 120, abs=1e-16)
    assert binom_survival_ratio(10, 7) == 0.0
    assert binom_survival_ratio(100, 0) == pytest.approx(0.97, abs=1e-15)
    assert binom_survival_ratio(100, 2) == pytest.approx(comb(97, 3) / comb(100, 3), abs=1e-15)


def test_ratio_errors():
    with pytest.raises(DegenerateInstance):
        binom_survival_ratio(3, 0)
    with pytest.raises(IndexOutOfRange):
        binom_survival_ratio(10, 10)
    with pytest.raises(IndexOutOfRange):
        binom_survival_ratio(10, -1)
    with pytest.raises(DomainError):
        binom_survival_ratio(10, 2.5)


@pytest.mark.parametrize("n", [5, 37, 1000])
def test_recurrence_identity(n):
    prob = top3_table(n).prob
    for k in range(n - 1, -1, -1):
        r = binom_survival_ratio(n, k)
        step = (1.0 - r) / (k + 1) + k / (k + 1) * prob[k + 1]
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
