from fractions import Fraction

import numpy as np
import pytest

from secretarylab import (
    ProblemSpec,
    build_tables,
    exact_reappearance,
    exact_top3,
    top3_table,
)
from secretarylab.errors import (
    DegenerateInstance,
    DomainError,
    IndexOutOfRange,
    InvalidSpec,
    TooLarge,
)


def test_top3_first_arrival():
    # threshold 0 hires the first candidate: top-3 chance is 3/n
    assert exact_top3(4, 0).probability == Fraction(3, 4)
    assert exact_top3(8, 0).probability == Fraction(3, 8)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_top3_matches_table(n):
    prob = top3_table(n).prob
    for k in range(n):
        assert abs(float(exact_top3(n, k).probability) - prob[k]) <= 1e-12


def test_top3_errors():
    with pytest.raises(TooLarge):
        exact_top3(9, 1)
    with pytest.raises(DegenerateInstance):
        exact_top3(3, 1)
    with pytest.raises(IndexOutOfRange):
        exact_top3(5, 5)
    # True and 1.0 hash as 1 does: they must be refused, not served 1's cached entry
    exact_top3(5, 1)
    for k in (True, 1.0):
        with pytest.raises(DomainError):
            exact_top3(5, k)


def test_reappearance_classical_small_case():
    # classical n=3, threshold 1: (1/3)(1/1 + 1/2) = 1/2
    assert exact_reappearance(3, 0, 1).probability == Fraction(1, 2)


def test_reappearance_classical_formula():
    # cross-check every p=0 value against (k/n) sum_{i=k}^{n-1} 1/i
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            expected = Fraction(k, n) * sum(Fraction(1, i) for i in range(k, n)) \
                if k < n else Fraction(0)
            assert exact_reappearance(n, 0, k).probability == expected


def test_reappearance_hand_enumeration_n2_p1():
    # tokens {a,a,b,b}: six arrangements, two rank assignments; the policy
    # fails only when the first candidate returns immediately (1 of 6), so
    # the success probability is 5/6
    assert exact_reappearance(2, 1, 1).probability == Fraction(5, 6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reappearance_p0_matches_tables(n):
    f = build_tables(ProblemSpec(n=n, p=0.0)).f
    for k in range(1, n + 1):
        assert abs(float(exact_reappearance(n, 0, k).probability) - f[k]) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reappearance_p1_matches_tables(n):
    # no model gap in the guaranteed-return case either
    f = build_tables(ProblemSpec(n=n, p=1.0)).f
    for k in range(1, n + 1):
        assert abs(float(exact_reappearance(n, 1, k).probability) - f[k]) <= 1e-12


def test_reappearance_frozen_values():
    # regression anchors computed once from this enumeration, per (n, p) over
    # k = 1..n; they were recorded when each p had its own enumeration, and
    # the one enumeration per n, as polynomials in p, must reproduce them
    F = Fraction
    expected = {
        (2, F(1, 4)): (F(191, 384), F(17, 96)),
        (2, F(1, 3)): (F(83, 162), F(13, 54)),
        (2, F(1, 2)): (F(9, 16), F(3, 8)),
        (2, F(1)): (F(5, 6), F(5, 6)),
        (3, F(1, 4)): (F(17947, 36864), F(611, 1536), F(53, 384)),
        (3, F(1, 3)): (F(361, 729), F(1043, 2430), F(77, 405)),
        (3, F(1, 2)): (F(1019, 1920), F(81, 160), F(73, 240)),
        (3, F(1)): (F(7, 9), F(5, 6), F(11, 15)),
        (4, F(1, 4)): (F(415637, 917504), F(7213, 16128), F(28529, 86016), F(813, 7168)),
        (4, F(1, 3)): (F(424057, 918540), F(858983, 1837080), F(2501, 6804), F(1789, 11340)),
        (4, F(1, 2)): (F(17779, 35840), F(1173, 2240), F(2027, 4480), F(577, 2240)),
        (4, F(1)): (F(3, 4), F(407, 504), F(337, 420), F(93, 140)),
    }
    for (n, p), values in expected.items():
        assert tuple(exact_reappearance(n, p, k).probability for k in range(1, n + 1)) == values


def test_reappearance_float_p_is_exact_dyadic():
    assert exact_reappearance(4, 0.25, 2).probability == Fraction(7213, 16128)
    # a numpy float is taken at its exact value, as the float it converts to
    for n, p, k in ((4, 0.25, 2), (3, 0.5, 1)):
        r = exact_reappearance(n, np.float32(p), k)
        assert r == exact_reappearance(n, p, k)
        assert type(r.probability) is Fraction and type(r.instance[1]) is Fraction


def test_reappearance_errors():
    with pytest.raises(TooLarge):
        exact_reappearance(5, Fraction(1, 2), 1)
    with pytest.raises(InvalidSpec):
        exact_reappearance(1, Fraction(1, 2), 1)
    with pytest.raises(InvalidSpec):
        exact_reappearance(3, Fraction(3, 2), 1)
    with pytest.raises(IndexOutOfRange):
        exact_reappearance(3, Fraction(1, 2), 0)
    with pytest.raises(IndexOutOfRange):
        exact_reappearance(3, Fraction(1, 2), 4)


def test_result_instances_are_tagged():
    r = exact_top3(5, 2)
    assert r.instance == (5, None, 2, "top3")
    r = exact_reappearance(3, Fraction(1, 2), 2)
    assert r.instance == (3, Fraction(1, 2), 2, "best")
