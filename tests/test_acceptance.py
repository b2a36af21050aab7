"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the model-gap characterisation table.

Published probabilities are truncated prints, so a computed value counts as
matching when it lies within one unit of the last printed decimal place.
"""

import math
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
from click.testing import CliRunner

from secretarylab import (
    ArrivalSequence,
    ProblemSpec,
    build_tables,
    estimate,
    exact_reappearance,
    exact_top3,
    integrate_limit_system,
    optimal_policy,
    optimal_policy_top3,
    optimal_x_top3,
    run_policy_top3,
    top3_limit,
    top3_table,
)
from secretarylab.cli import main as cli_main

TABLE1 = [
    (0.0, 37, "0.371"),
    (0.001, 37, "0.372"),
    (0.1, 47, "0.484"),
    (0.25, 55, "0.597"),
    (0.5, 57, "0.6874"),
    (0.75, 54, "0.7328"),
    (0.9, 51, "0.7546"),
    (0.999, 48, "0.7695"),
    (1.0, 48, "0.7697"),
]

TABLE2 = [
    (10, 2, "0.6640"),
    (100, 26, "0.6008"),
    (1_000, 260, "0.5953"),
    (10_000, 2599, "0.59479"),
    (100_000, 25997, "0.59473"),
    (1_000_000, 259971, "0.59473"),
    (10_000_000, 2599716, "0.59472"),
]


def print_band(printed: str) -> float:
    return 10.0 ** (-len(printed.split(".")[1]))


def report(line: str):
    print(f"\n{line}")


def test_criterion_01_table1_reproduction():
    start = time.perf_counter()
    for p, k_ref, printed in TABLE1:
        pol = optimal_policy(ProblemSpec(n=100, p=p))
        assert pol.k_n == k_ref, f"p={p}: k_n={pol.k_n} != {k_ref}"
        assert abs(pol.value - float(printed)) <= print_band(printed), \
            f"p={p}: value={pol.value} vs printed {printed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"table 1 took {elapsed:.2f}s"
    report(f"PASS criterion 1: table 1 reproduced, 9/9 rows in {elapsed * 1e3:.0f} ms")


def test_criterion_02_table2_reproduction():
    start = time.perf_counter()
    for n, k_ref, printed in TABLE2:
        pol = optimal_policy_top3(n)
        assert pol.k_n == k_ref, f"n={n}: k_n={pol.k_n} != {k_ref}"
        assert abs(pol.value - float(printed)) <= print_band(printed), \
            f"n={n}: value={pol.value} vs printed {printed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"table 2 took {elapsed:.2f}s"
    report(f"PASS criterion 2: table 2 reproduced through n=1e7 in {elapsed:.2f} s")


def test_criterion_03_classical_limit():
    start = time.perf_counter()
    pol = optimal_policy(ProblemSpec(n=10**6, p=0.0))
    elapsed = time.perf_counter() - start
    inv_e = 1.0 / math.e
    assert abs(pol.k_n / 10**6 - inv_e) <= 1e-3
    assert abs(pol.value - inv_e) <= 1e-3
    # linear-time tripwire: a superlinear build would blow far past this
    assert elapsed < 30.0, f"n=1e6 build took {elapsed:.1f}s"
    report(
        f"PASS criterion 3: n=1e6, p=0 gives k/n={pol.k_n / 1e6:.6f}, "
        f"value={pol.value:.6f} (1/e={inv_e:.6f}) in {elapsed:.1f} s"
    )


def test_criterion_04_guaranteed_return_limit():
    pol = optimal_policy(ProblemSpec(n=10**4, p=1.0))
    assert abs(pol.k_n / 10**4 - 0.47) <= 0.01
    assert abs(pol.value - 0.76) <= 0.01
    report(
        f"PASS criterion 4: n=1e4, p=1 gives k/n={pol.k_n / 1e4:.4f}, "
        f"value={pol.value:.4f} (targets 0.47 / 0.76)"
    )


def test_criterion_05_top3_asymptotics():
    root = optimal_x_top3()
    assert abs(root.x_star - 0.2599) <= 1e-3
    assert abs(root.value_at_root - 0.5947) <= 1e-3
    assert top3_limit(1.0) == 0.0
    report(
        f"PASS criterion 5: x*={root.x_star:.7f}, P(x*)={root.value_at_root:.7f}, "
        f"limit(1)=0 exactly"
    )


def test_criterion_06_oracle_equivalence_top3():
    for n in range(4, 9):
        prob = top3_table(n).prob
        for k in range(n):
            exact = float(exact_top3(n, k).probability)
            assert abs(exact - prob[k]) <= 1e-12, (n, k)
    # the simulator policy, driven over every permutation, is the same rule
    for n in range(4, 8):
        prob = top3_table(n).prob
        fact = math.factorial(n)
        for k in range(n):
            hits = 0
            for ranks in permutations(range(1, n + 1)):
                out = run_policy_top3(ArrivalSequence.from_ranks(ranks), k)
                hits += out.chosen_rank is not None and out.chosen_rank <= 3
            assert abs(hits / fact - prob[k]) <= 1e-12, (n, k)
    report("PASS criterion 6: exact enumeration == table for n=4..8, "
           "exhaustive policy driver == table for n=4..7")


def test_criterion_07_oracle_equivalence_reappearance_p0():
    for n in (2, 3, 4):
        f = build_tables(ProblemSpec(n=n, p=0.0)).f
        for k in range(1, n + 1):
            exact = float(exact_reappearance(n, 0, k).probability)
            assert abs(exact - f[k]) <= 1e-12, (n, k)
    report("PASS criterion 7: p=0 enumeration == tables for n=2..4, all k")


def test_criterion_08_physical_model_consistency():
    trials = 10**6
    lines = []
    for p in (Fraction(1, 4), Fraction(1, 2)):
        f = build_tables(ProblemSpec(n=4, p=float(p))).f
        for k in range(1, 5):
            exact = float(exact_reappearance(4, p, k).probability)
            r = estimate(n=4, p=float(p), k=k, trials=trials, seed=20260809)
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            assert abs(r.estimate - exact) <= 3 * sigma, (p, k, r.estimate, exact)
            lines.append(
                f"  n=4 p={float(p):.2f} k={k}: sim={r.estimate:.6f} "
                f"oracle={exact:.6f} dp={f[k]:.6f} dp-oracle gap={f[k] - exact:+.6f}"
            )
    report("PASS criterion 8: simulator within 3 sigma of exact enumeration "
           "at 1e6 trials; dp-vs-oracle gap (characterisation, not asserted):")
    for line in lines:
        print(line)


def test_criterion_09_published_simulation_experiment():
    r = estimate(n=100, p=0.0, k=26, trials=10**5, seed=7, objective="top3")
    sigma = math.sqrt(0.6008 * (1 - 0.6008) / 10**5)
    assert abs(r.estimate - 0.6008) <= 3 * sigma
    report(f"PASS criterion 9: top-3 n=100 k=26 at 1e5 trials gives "
           f"{r.estimate:.5f} (3-sigma band around 0.6008)")


def test_criterion_10_ode_accuracy():
    phi, _, _, _ = integrate_limit_system(0.0, step=1e-4, epsilon=1e-4)
    g = phi.grid
    window = (g >= 0.05) & (g <= 0.95)
    err = np.max(np.abs(phi.values[window] + g[window] * np.log(g[window])))
    assert err <= 1e-6, f"max error {err:.2e}"
    errs = []
    for step in (0.01, 0.005):
        p2, _, _, _ = integrate_limit_system(0.0, step=step, epsilon=0.01)
        g2 = p2.grid
        w2 = (g2 >= 0.05) & (g2 <= 0.95)
        errs.append(np.max(np.abs(p2.values[w2] + g2[w2] * np.log(g2[w2]))))
    ratio = errs[0] / errs[1]
    assert ratio >= 12.0, f"step-halving ratio {ratio:.1f}"
    report(f"PASS criterion 10: classical curve error {err:.2e} at step 1e-4; "
           f"halving 0.01 -> 0.005 improves {ratio:.1f}x")


def test_criterion_11_determinism():
    a = estimate(n=50, p=0.3, k=20, trials=20000, seed=99)
    b = estimate(n=50, p=0.3, k=20, trials=20000, seed=99)
    assert a == b
    runner = CliRunner()
    args = ["simulate", "--model", "top3", "--n", "40", "--k", "10",
            "--trials", "5000", "--seed", "13"]
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    report("PASS criterion 11: byte-identical reports and CLI output on repeat runs")
