"""Output checks for the benchmark, each against a reference independent of the program.

A check returns None when an output is correct and raises CheckFailed when it
is not.  The references are either stored with the benchmark
(references.json), closed-form limits, or the model recurrences transcribed
here in plain sequential Python, so a rewrite of the program's solvers is
checked against code it does not share.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

INV_E = 1.0 / math.e
REFERENCES = Path(__file__).with_name("references.json")

# A threshold counts as optimal when its reference value is within this of the
# reference maximum; near the optimum neighbouring thresholds differ by about
# 1/n^2, far more than the rounding of either implementation.
ARGMAX_TOL = 1e-12
VALUE_TOL = 1e-9
MC_SIGMAS = 4.0


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def load_references() -> dict:
    """Published table rows and the exact n = 4 re-arrival probabilities."""
    raw = json.loads(REFERENCES.read_text())
    exact = {
        (Fraction(e["p"]), e["k"]): Fraction(e["probability"])
        for e in raw["exact_reappearance_n4"]
    }
    return {"exact_n4": exact, "table1": raw["table1"], "table2": raw["table2"]}


# --- reference recurrences -------------------------------------------------

def reappearance_f(n: int, p: float) -> list[float]:
    """Success probability f[k] of threshold k = 1..n in the re-arrival model.

    phi (leader seen once) and psi (leader seen twice) run backward from
    phi[n] = p, psi[n] = 0; upsilon (leader seen once when the k-th distinct
    candidate arrives) runs forward from upsilon[1] = 1.  Index 0 is unused.
    """
    phi = [0.0] * (n + 1)
    psi = [0.0] * (n + 1)
    phi[n] = p
    for k in range(n - 1, 0, -1):
        a = 1.0 / ((1.0 + p) * (n - k) + 1.0)
        phi[k] = (p * a * k + (1.0 - p) * (1.0 - p * a)) / n \
            + (p + k) * (1.0 - p * a) * phi[k + 1] / (k + 1)
        psi[k] = (1.0 - p) / n + (p * phi[k + 1] + k * psi[k + 1]) / (k + 1)
    f = [math.nan] * (n + 1)
    ups = 1.0
    for k in range(1, n + 1):
        if k > 1:
            ups = 1.0 / k + (1.0 - p / ((1.0 + p) * (n - k + 1) + 1.0)) * (1.0 - 1.0 / k) * ups
        f[k] = ups * phi[k] + (1.0 - ups) * psi[k]
    return f


def top3_prob(n: int) -> list[float]:
    """prob[k], k = 0..n, of the classical threshold rule scored as top-3.

    Sequential backward recurrence prob[k] = (1 - q)/(k+1) + k/(k+1) prob[k+1]
    from prob[n] = 0, with q = C(n-3, k+1)/C(n, k+1).
    """
    prob = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        q = max(0.0, ((n - k - 1) / n) * ((n - k - 2) / (n - 1)) * ((n - k - 3) / (n - 2)))
        prob[k] = (1.0 - q) / (k + 1) + k / (k + 1) * prob[k + 1]
    return prob


# --- checks ----------------------------------------------------------------

def optimum(ref, k_lo: int) -> dict[int, float]:
    """The optimal thresholds of a reference curve over k >= k_lo, with their values.

    A compact stand-in for the whole curve: check_optimal needs no more.
    """
    best = max(ref[k_lo:])
    return {k: ref[k] for k in range(k_lo, len(ref)) if ref[k] >= best - ARGMAX_TOL}


def check_optimal(k: int, value: float, optimal: dict[int, float]):
    """k is an optimal threshold of the reference curve and value is its probability."""
    expect(k in optimal, f"k_n={k} is not an optimal threshold; reference optima {sorted(optimal)}")
    expect(abs(value - optimal[k]) <= VALUE_TOL,
           f"value {value!r} != reference {optimal[k]!r} at k={k}")


def check_published(k: int, value: float, ref_k: int, printed: str, slack: float = 0.0):
    """Published rows are truncated prints: a value passes within one unit of the last digit."""
    unit = 10.0 ** -len(printed.split(".")[1])
    expect(k == ref_k, f"k_n={k}, published {ref_k}")
    expect(abs(value - float(printed)) <= unit + slack,
           f"probability {value!r} outside one unit of published {printed}")


def check_table1_text(text: str, rows: list):
    """The aligned text table: every status is pass and agrees with the published rows."""
    lines = text.splitlines()
    expect(len(lines) == len(rows) + 2, f"table1 printed {len(lines)} lines")
    header = lines[0].split()
    for line, (p, k_ref, printed) in zip(lines[1:], rows):
        row = dict(zip(header, line.split()))
        expect(row.get("status") == "pass", f"table1 row p={p}: status {row.get('status')}")
        expect(abs(float(row["p"]) - p) <= 5e-7, f"table1 row p={row['p']}, expected {p}")
        # cells are printed to 6 decimals
        check_published(int(row["k_n"]), float(row["probability"]), k_ref, printed, slack=5e-7)
    expect(lines[-1] == f"table1: {len(rows)}/{len(rows)} rows pass", f"summary {lines[-1]!r}")


def check_table2_json(text: str, rows: list):
    got = json.loads(text)["result"]["rows"]
    expect(len(got) == len(rows), f"table2 has {len(got)} rows, expected {len(rows)}")
    for row, (n, k_ref, printed) in zip(got, rows):
        expect(row["status"] == "pass", f"table2 row n={n}: status {row['status']}")
        expect(row["n"] == n, f"table2 row n={row['n']}, expected {n}")
        check_published(row["k_n"], row["probability"], k_ref, printed)


def check_classical_solve(text: str, n: int):
    """reappearance-solve at p = 0 and large n: k/n and the value are near 1/e."""
    res = json.loads(text)["result"]
    expect(res["k_over_n"] == res["k_n"] / n, f"k_over_n {res['k_over_n']} != k_n/n")
    expect(abs(res["k_over_n"] - INV_E) <= 1e-3, f"k/n={res['k_over_n']} not within 1e-3 of 1/e")
    expect(abs(res["probability"] - INV_E) <= 1e-3,
           f"value {res['probability']} not within 1e-3 of 1/e")


def check_asymptotic(text: str, p: float):
    """Limit threshold and value: pinned at p in {0, 1}, bounded otherwise.

    For 0 < p < 1 the current integrator is a finite-size proxy, not the true
    limit, so only the range is checked.
    """
    res = json.loads(text)["result"]
    x, f = res["x_star"], res["probability"]
    expect(math.isfinite(x) and math.isfinite(f), f"non-finite limit at p={p}")
    if p == 0.0:
        expect(abs(x - INV_E) <= 1e-3 and abs(f - INV_E) <= 1e-3, f"p=0 limit {x}, {f}")
    elif p == 1.0:
        expect(abs(x - 0.47) <= 0.01 and abs(f - 0.768) <= 0.01, f"p=1 limit {x}, {f}")
    else:
        expect(0.0 < x < 1.0, f"x*={x} outside (0, 1) at p={p}")
        expect(INV_E - 1e-3 <= f <= 1.0, f"f*={f} outside [1/e - 1e-3, 1] at p={p}")


def check_curve_csv(text: str, ref: list[float], precision: int = 6):
    """Rows k = 1..n, each value the reference rounded to `precision` places,
    and the reference optimum on the printed maximum."""
    lines = text.splitlines()
    n = len(ref) - 1
    expect(lines[0] == "k,probability", f"CSV header {lines[0]!r}")
    expect(len(lines) == n + 1, f"CSV has {len(lines) - 1} rows, expected {n}")
    half_ulp = 0.5 * 10.0 ** -precision + VALUE_TOL
    values = []
    for k, line in enumerate(lines[1:], start=1):
        ks, vs = line.split(",")
        v = float(vs)
        expect(int(ks) == k, f"CSV row {k} labelled {ks}")
        expect(abs(v - ref[k]) <= half_ulp, f"CSV k={k}: {vs} vs reference {ref[k]!r}")
        values.append(v)
    k_opt = max(range(1, n + 1), key=ref.__getitem__)
    expect(values[k_opt - 1] == max(values), f"reference optimum k={k_opt} is not the printed maximum")


def check_curve_json(text: str, ref: list[float]):
    """Top-3 curve rows k = 0..n-1 match the reference; its argmax is optimal."""
    rows = json.loads(text)["rows"]
    n = len(ref) - 1
    expect(len(rows) == n, f"curve has {len(rows)} rows, expected {n}")
    values = []
    for k, row in enumerate(rows):
        expect(row["k"] == k, f"curve row {k} labelled {row['k']}")
        expect(abs(row["probability"] - ref[k]) <= VALUE_TOL,
               f"curve k={k}: {row['probability']!r} vs reference {ref[k]!r}")
        values.append(row["probability"])
    k_max = values.index(max(values))
    check_optimal(k_max, values[k_max], optimum(ref[:n], 0))


def check_estimate(report, trials: int, exact: float):
    """A Monte Carlo estimate lies within 4 sigma of the exact value."""
    expect(report.trials == trials, f"report covers {report.trials} trials, expected {trials}")
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    expect(abs(report.estimate - exact) <= MC_SIGMAS * sigma,
           f"estimate {report.estimate} is {abs(report.estimate - exact) / sigma:.2f} sigma "
           f"from exact {exact}")
