from fractions import Fraction

import numpy as np
import pytest

from secretarylab import (
    DpTables,
    ProblemSpec,
    build_tables,
    exact_reappearance,
    optimal_policy,
    success_probability,
)
from secretarylab.cli import TABLE1_ROWS
from secretarylab.errors import IndexOutOfRange, InvalidSpec
from secretarylab.reappearance import scan


def classical_f(n):
    """Classical best-choice recurrence, written independently of the solver."""
    f = [0.0] * (n + 1)
    for k in range(n - 1, 0, -1):
        f[k] = 1.0 / n + k / (k + 1) * f[k + 1]
    return f


def sequential_tables(n, p):
    """The phi/psi/upsilon recurrences stepped one k at a time, as a reference
    for the closed forms build_tables evaluates."""
    phi = [0.0] * (n + 1)
    psi = [0.0] * (n + 1)
    phi[n] = p
    psi[n] = 0.0
    for k in range(n - 1, -1, -1):
        a = 1.0 / ((1.0 + p) * (n - k) + 1.0)
        phi[k] = (p * a * k + (1.0 - p) * (1.0 - p * a)) / n \
            + (p + k) * (1.0 - p * a) * phi[k + 1] / (k + 1)
        psi[k] = (1.0 - p) / n + (p * phi[k + 1] + k * psi[k + 1]) / (k + 1)
    upsilon = [0.0] * (n + 1)
    upsilon[1] = 1.0
    for k in range(2, n + 1):
        upsilon[k] = 1.0 / k \
            + (1.0 - p / ((1.0 + p) * (n - k + 1) + 1.0)) * (1.0 - 1.0 / k) * upsilon[k - 1]
    phi, psi, upsilon = np.array(phi), np.array(psi), np.array(upsilon)
    f = upsilon * phi + (1.0 - upsilon) * psi
    upsilon[0] = f[0] = np.nan
    return phi, psi, upsilon, f


@pytest.mark.parametrize(
    "n,p",
    [(100, p) for p, _, _ in TABLE1_ROWS]
    + [(200_000, 0.0), (200_000, 0.5), (200_000, 1.0), (1_000_000, 0.0)],
)
def test_closed_forms_match_sequential_recurrence(n, p):
    t = build_tables(ProblemSpec(n=n, p=p))
    ref = sequential_tables(n, p)
    for got, want in zip((t.phi, t.psi, t.upsilon, t.f), ref):
        assert np.isnan(got[0]) == np.isnan(want[0])
        assert np.max(np.abs(got[1:] - want[1:])) <= 1e-11
        if not np.isnan(want[0]):
            assert abs(got[0] - want[0]) <= 1e-11
    assert np.argmax(t.f[1:]) == np.argmax(ref[3][1:])


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("op", [np.add, np.multiply])
def test_scan_in_blocks_equals_one_accumulate(op, reverse):
    rng = np.random.default_rng(17)
    for size in [*range(1, 12), *rng.integers(12, 500, 40)]:
        x = rng.uniform(0.5, 1.5, size)
        whole = op.accumulate(x[::-1])[::-1] if reverse else op.accumulate(x)
        cuts = np.sort(rng.choice(np.arange(1, size), rng.integers(0, min(size, 12)), replace=False))
        blocks = np.split(x, cuts)  # views of x, scanned in place
        carry = float(op.identity)
        for block in reversed(blocks) if reverse else blocks:
            carry = scan(op, block, carry, reverse)
        assert x.tobytes() == whole.tobytes(), (size, cuts)
        assert carry == whole[0 if reverse else -1]


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        ProblemSpec(n=0, p=0.5)
    with pytest.raises(InvalidSpec):
        ProblemSpec(n=5, p=-0.1)
    with pytest.raises(InvalidSpec):
        ProblemSpec(n=5, p=1.5)
    for n, p in ((2.5, 0.5), (10.0, 0.5), (True, 0.5), (5, True), (5, "0.5"), (5, None)):
        with pytest.raises(InvalidSpec, match="n=" if p == 0.5 else "p="):
            ProblemSpec(n=n, p=p)
    ProblemSpec(n=1, p=0.0)  # n=1 is a valid spec, just not buildable
    # the spec keeps n and p as checked: numpy scalars become Python numbers
    for p in (Fraction(1, 2), np.float32(0.5), 0.5, 1):
        spec = ProblemSpec(n=np.int64(5), p=p)
        assert (type(spec.n), type(spec.p)) == (int, float if isinstance(p, np.floating) else type(p))
        assert spec.p == p


def test_build_rejects_n1():
    with pytest.raises(InvalidSpec):
        build_tables(ProblemSpec(n=1, p=0.5))


def test_boundary_values_exact():
    t = build_tables(ProblemSpec(n=5, p=0.5))
    assert t.phi[5] == 0.5
    assert t.psi[5] == 0.0
    assert t.upsilon[1] == 1.0


@pytest.mark.parametrize("n,p", [(2, 0.0), (5, 0.3), (17, 0.9), (100, 1.0), (64, 0.001)])
def test_entries_in_unit_interval(n, p):
    t = build_tables(ProblemSpec(n=n, p=p))
    for arr in (t.phi, t.psi, t.upsilon[1:], t.f[1:]):
        assert (arr >= 0.0).all() and (arr <= 1.0).all()


def test_tables_are_readonly():
    t = build_tables(ProblemSpec(n=10, p=0.5))
    with pytest.raises(ValueError):
        t.f[3] = 0.0


def test_combination_identity():
    t = build_tables(ProblemSpec(n=40, p=0.35))
    recombined = t.upsilon[1:] * t.phi[1:] + (1.0 - t.upsilon[1:]) * t.psi[1:]
    assert np.max(np.abs(t.f[1:] - recombined)) == 0.0


def test_p0_collapse_to_classical():
    n = 100
    t = build_tables(ProblemSpec(n=n, p=0.0))
    # no reappearances: the leader has always been seen exactly once
    assert (t.upsilon[1:] == 1.0).all()
    assert (t.f[1:] == t.phi[1:]).all()
    ref = classical_f(n)
    for k in range(1, n + 1):
        assert abs(t.f[k] - ref[k]) <= 1e-12


def test_p1_collapse_to_specialised_recursions():
    # guaranteed-return forms: a = 1/(2n-2k+1), and the complement recurrence
    # for the seen-twice probability
    n = 100
    t = build_tables(ProblemSpec(n=n, p=1.0))
    phi = [0.0] * (n + 1)
    phi[n] = 1.0
    for k in range(n - 1, -1, -1):
        a = 1.0 / (2 * n - 2 * k + 1)
        phi[k] = k / n * a + (2 * n - 2 * k) / (2 * n - 2 * k + 1) * phi[k + 1]
    psi = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        psi[k] = phi[k + 1] / (k + 1) + k / (k + 1) * psi[k + 1]
    upsbar = [0.0] * (n + 1)
    upsbar[1] = 0.0
    for k in range(2, n + 1):
        upsbar[k] = (k - 1) / (k * (2 * n - 2 * k + 3)) \
            + 2 * (k - 1) * (n - k + 1) / (k * (2 * n - 2 * k + 3)) * upsbar[k - 1]
    for k in range(1, n + 1):
        ups = 1.0 - upsbar[k]
        f = ups * phi[k] + (1.0 - ups) * psi[k]
        assert abs(t.f[k] - f) <= 1e-12


def test_three_step_unroll_n6():
    # unrolled arithmetic for n=6, p=0.3, threshold 3, independent of the loop
    n, p = 6, 0.3
    phi6, psi6 = p, 0.0
    a5 = 1.0 / ((1 + p) * 1 + 1)
    phi5 = (p * a5 * 5 + (1 - p) * (1 - p * a5)) / n + (p + 5) * (1 - p * a5) * phi6 / 6
    psi5 = (1 - p) / n + (p * phi6 + 5 * psi6) / 6
    a4 = 1.0 / ((1 + p) * 2 + 1)
    phi4 = (p * a4 * 4 + (1 - p) * (1 - p * a4)) / n + (p + 4) * (1 - p * a4) * phi5 / 5
    psi4 = (1 - p) / n + (p * phi5 + 4 * psi5) / 5
    a3 = 1.0 / ((1 + p) * 3 + 1)
    phi3 = (p * a3 * 3 + (1 - p) * (1 - p * a3)) / n + (p + 3) * (1 - p * a3) * phi4 / 4
    psi3 = (1 - p) / n + (p * phi4 + 3 * psi4) / 4
    u2 = 0.5 + (1 - p / ((1 + p) * 5 + 1)) * 0.5
    u3 = 1.0 / 3 + (1 - p / ((1 + p) * 4 + 1)) * (2.0 / 3) * u2
    expected = u3 * phi3 + (1 - u3) * psi3

    t = build_tables(ProblemSpec(n=6, p=0.3))
    assert success_probability(t, 3) == pytest.approx(expected, abs=1e-15)


def test_success_probability_lookup_and_errors():
    t = build_tables(ProblemSpec(n=100, p=0.5))
    # published value is printed truncated; allow one unit of the last decimal
    assert abs(success_probability(t, 57) - 0.6874) <= 1e-4
    assert success_probability(t, 1) == t.phi[1]  # upsilon[1] = 1
    with pytest.raises(IndexOutOfRange):
        success_probability(t, 0)
    with pytest.raises(IndexOutOfRange):
        success_probability(t, 101)


@pytest.mark.parametrize(
    "p,kn,value",
    [(0.0, 37, 0.371), (1.0, 48, 0.7697), (0.75, 54, 0.7328)],
)
def test_published_optima_n100(p, kn, value):
    pol = optimal_policy(ProblemSpec(n=100, p=p))
    assert pol.k_n == kn
    assert abs(pol.value - value) <= 1e-3


def test_argmax_dominates_all_thresholds():
    spec = ProblemSpec(n=200, p=0.6)
    pol = optimal_policy(spec)
    t = build_tables(spec)
    assert all(pol.value >= t.f[k] for k in range(1, 201))
    assert pol.value == t.f[pol.k_n]
    # smallest index achieving the maximum wins
    assert pol.k_n == int(np.argmax(t.f[1:])) + 1


def test_model_gap_band_n4():
    # the recurrences treat seen non-leaders' remaining arrivals as consumed,
    # so for 0 < p < 1 they sit above the physical enumeration; the gap at
    # n=4 stays below 0.15 (zero at p=0 and p=1, see oracle tests)
    t = build_tables(ProblemSpec(n=4, p=0.25))
    for k in range(1, 5):
        exact = float(exact_reappearance(4, 0.25, k).probability)
        assert abs(t.f[k] - exact) <= 0.15
        assert t.f[k] >= exact - 1e-12


def test_dptables_fields():
    t = build_tables(ProblemSpec(n=7, p=0.2))
    assert isinstance(t, DpTables)
    assert t.phi.shape == (8,)
    assert np.isnan(t.upsilon[0]) and np.isnan(t.f[0])
