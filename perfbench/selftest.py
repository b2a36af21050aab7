"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/selftest.py

Every output check must reject a corrupted output, the stored references must
equal the oracle's rationals, the reference recurrences must agree with exact
enumeration, and a smoke run of each workload must print every metric that
BENCHMARK.json declares.  About a minute, most of it the n = 4 enumeration.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the program on sys.path)
from secretarylab import oracle, reappearance, simulator, top3  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFS = checks.load_references()


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def replace_cell(line: str, old: str, new: str) -> str:
    cells = line.split(" ")
    i = cells.index(old)
    cells[i] = new.ljust(len(old))
    return " ".join(cells)


# --- each check accepts the real output and rejects a corrupted one --------

def test_table1_text_rejects_k_off_by_one_even_when_status_says_pass():
    out = workloads.run_cli(["table1"])
    checks.check_table1_text(out, REFS["table1"])
    lines = out.splitlines()
    lines[1] = replace_cell(lines[1], "37", "38")  # p = 0 row; status still "pass"
    assert "pass" in lines[1]
    rejects(checks.check_table1_text, "\n".join(lines) + "\n", REFS["table1"])
    rejects(checks.check_table1_text, out.replace(" pass", " FAIL", 1), REFS["table1"])


def test_table2_json_rejects_k_off_by_one_and_missing_rows():
    rows = REFS["table2"][:-1]  # without --full
    out = workloads.run_cli(["table2", "--format", "json"])
    checks.check_table2_json(out, rows)
    record = json.loads(out)
    record["result"]["rows"][2]["k_n"] += 1
    rejects(checks.check_table2_json, json.dumps(record), rows)
    rejects(checks.check_table2_json, out, REFS["table2"])


def test_classical_solve_rejects_k_off_by_one_and_wrong_value():
    out = workloads.run_cli(["reappearance-solve", "--n", "10000", "--p", "0"])
    checks.check_classical_solve(out, 10_000)
    record = json.loads(out)
    record["result"]["k_n"] += 1
    rejects(checks.check_classical_solve, json.dumps(record), 10_000)
    record = json.loads(out)
    record["result"]["probability"] += 2e-3
    rejects(checks.check_classical_solve, json.dumps(record), 10_000)


@pytest.mark.parametrize("p, field, delta", [
    (0.0, "x_star", 2e-3), (1.0, "probability", 0.02), (0.5, "probability", -0.5),
    (0.5, "x_star", 1.0),
])
def test_asymptotic_rejects_values_outside_their_bounds(p, field, delta):
    out = workloads.run_cli(["asymptotic", "--model", "reappearance", "--p", str(p)])
    checks.check_asymptotic(out, p)
    record = json.loads(out)
    record["result"][field] += delta
    rejects(checks.check_asymptotic, json.dumps(record), p)
    record["result"][field] = math.nan
    rejects(checks.check_asymptotic, json.dumps(record), p)


def test_curve_csv_rejects_truncation_and_shifted_rows():
    n = 2000
    ref = checks.reappearance_f(n, 0.5)
    out = workloads.run_cli(["curve", "--model", "reappearance", "--n", str(n), "--p", "0.5"])
    checks.check_curve_csv(out, ref)
    lines = out.splitlines()
    rejects(checks.check_curve_csv, "\n".join(lines[:-1]) + "\n", ref)
    rejects(checks.check_curve_csv, out[: len(out) // 2], ref)
    # every value moved one row later: the printed optimum is off by one
    shifted = [lines[0], "1,0.000000"] + [f"{k + 1},{line.split(',')[1]}"
                                          for k, line in enumerate(lines[1:-1], start=1)]
    rejects(checks.check_curve_csv, "\n".join(shifted) + "\n", ref)


def test_curve_json_rejects_argmax_off_by_one():
    n = 2000
    ref = checks.top3_prob(n)
    out = workloads.run_cli(["curve", "--model", "top3", "--n", str(n), "--format", "json"])
    checks.check_curve_json(out, ref)
    record = json.loads(out)
    rows = record["rows"]
    k_max = max(range(n), key=lambda k: rows[k]["probability"])
    # within the per-row tolerance, but it makes k_max + 1 the printed optimum
    rows[k_max + 1]["probability"] = rows[k_max]["probability"] + 1e-13
    rejects(checks.check_curve_json, json.dumps(record), ref)
    del rows[-1]
    rejects(checks.check_curve_json, json.dumps({"rows": rows}), ref)


@pytest.mark.parametrize("n, p", [(100, 0.0), (1000, 0.37), (1000, 1.0)])
def test_optimal_policy_check_rejects_k_off_by_one(n, p):
    pol = reappearance.optimal_policy(reappearance.ProblemSpec(n=n, p=p))
    opt = checks.optimum(checks.reappearance_f(n, p), 1)
    checks.check_optimal(pol.k_n, pol.value, opt)
    for dk in (-1, 1):
        rejects(checks.check_optimal, pol.k_n + dk, pol.value, opt)
    rejects(checks.check_optimal, pol.k_n, pol.value + 1e-6, opt)


@pytest.mark.parametrize("n", [10, 100, 2000])
def test_top3_policy_check_rejects_k_off_by_one(n):
    pol = top3.optimal_policy_top3(n)
    opt = checks.optimum(checks.top3_prob(n)[:n], 0)
    checks.check_optimal(pol.k_n, pol.value, opt)
    rejects(checks.check_optimal, pol.k_n + 1, pol.value, opt)


def test_published_row_check_rejects_k_off_by_one():
    pol = reappearance.optimal_policy(reappearance.ProblemSpec(n=100, p=0.5))
    checks.check_published(pol.k_n, pol.value, 57, "0.6874")
    rejects(checks.check_published, pol.k_n + 1, pol.value, 57, "0.6874")
    rejects(checks.check_published, pol.k_n, pol.value + 2e-4, 57, "0.6874")


def test_estimate_check_rejects_five_sigma_and_wrong_trial_count():
    exact = float(REFS["exact_n4"][(Fraction(1, 2), 2)])
    trials = 20_000
    rep = simulator.estimate(n=4, p=0.5, k=2, trials=trials, seed=3)
    checks.check_estimate(rep, trials, exact)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    for sign in (-1, 1):
        rejects(checks.check_estimate,
                dataclasses.replace(rep, estimate=exact + sign * 5 * sigma), trials, exact)
    rejects(checks.check_estimate, rep, 2 * trials, exact)


# --- references -------------------------------------------------------------

def test_stored_n4_references_equal_the_oracle():
    assert len(REFS["exact_n4"]) == 8
    for (p, k), stored in REFS["exact_n4"].items():
        assert oracle.exact_reappearance(4, p, k).probability == stored


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_top3_reference_matches_enumeration(n):
    ref = checks.top3_prob(n)
    for k in range(n):
        assert ref[k] == pytest.approx(float(oracle.exact_top3(n, k).probability), abs=1e-14)


@pytest.mark.parametrize("p", [0, 1])
def test_reappearance_reference_matches_enumeration(p):
    # at p in {0, 1} the recurrences are exact for the physical process
    ref = checks.reappearance_f(3, float(p))
    for k in range(1, 4):
        assert ref[k] == pytest.approx(float(oracle.exact_reappearance(3, p, k).probability),
                                       abs=1e-14)


# --- whole runs -------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(name, trace, monkeypatch, capsys):
    # tiny size: one pass over the workload's first operation
    wl = workloads.WORKLOADS[name]
    monkeypatch.setattr(wl, "build", lambda seed, refs, build=wl.build: build(seed, refs)[:1])
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_repeated_cli_output_keeps_its_verdict_and_a_changed_one_is_checked():
    ops = workloads.WORKLOADS["cli-large"].build(1, REFS)[:1]  # table1
    good = ops[0].run()
    bad = good.replace(" pass", " FAIL", 1)
    outcomes = run.Outcomes()
    for outs in ([good], [good], [bad], [good]):
        outcomes.check(ops, outs)
    assert (outcomes.attempted, outcomes.failed) == (4, 1)
