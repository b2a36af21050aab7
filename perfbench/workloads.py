"""The benchmark's workloads: the operations of one pass and how each output is checked.

Each workload turns the seed into a fixed list of operations.  A pass runs
them one after another in this process (closed loop, one thread); outputs are
checked after the pass, outside its timing.  Operations look the program's
functions up as module attributes at call time, so spans.Instrumentation
can wrap them for a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import checks
import secretarylab.cli as cli
from secretarylab import reappearance, simulator, top3


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    work: int = 1  # solver calls or simulated trials counted toward throughput


@dataclass
class Workload:
    name: str
    throughput: str | None  # name of the work-per-second figure, if any
    build: Callable[[int, dict], list[Op]]


def run_cli(args: list[str]) -> str:
    """One CLI command in this process; returns what it wrote to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main.main(args=args, prog_name="secretarylab", standalone_mode=False)
    return buf.getvalue()


# References are computed once per process, at the first check that needs them.
# Whole curves are kept as arrays of doubles; the solver sweep keeps only each
# curve's optima, so the benchmark's own memory stays small beside the program's.
@lru_cache(maxsize=None)
def reappearance_f(n: int, p: float) -> array:
    return array("d", checks.reappearance_f(n, p))


@lru_cache(maxsize=None)
def top3_prob(n: int) -> array:
    return array("d", checks.top3_prob(n))


@lru_cache(maxsize=None)
def reappearance_optimum(n: int, p: float) -> dict[int, float]:
    return checks.optimum(checks.reappearance_f(n, p), 1)


@lru_cache(maxsize=None)
def top3_optimum(n: int) -> dict[int, float]:
    return checks.optimum(checks.top3_prob(n)[:n], 0)


CURVE_N = 200_000
SOLVE_N = 1_000_000


def _cli_large(seed: int, refs: dict) -> list[Op]:
    # The command list is fixed; the seed selects nothing here.
    ops = [
        Op("table1", lambda: run_cli(["table1"]),
           lambda out: checks.check_table1_text(out, refs["table1"])),
        Op("table2 --full", lambda: run_cli(["table2", "--full", "--format", "json"]),
           lambda out: checks.check_table2_json(out, refs["table2"])),
        Op("reappearance-solve", lambda: run_cli(
            ["reappearance-solve", "--n", str(SOLVE_N), "--p", "0"]),
           lambda out: checks.check_classical_solve(out, SOLVE_N)),
        Op("curve reappearance", lambda: run_cli(
            ["curve", "--model", "reappearance", "--n", str(CURVE_N), "--p", "0.5"]),
           lambda out: checks.check_curve_csv(out, reappearance_f(CURVE_N, 0.5))),
        Op("curve top3", lambda: run_cli(
            ["curve", "--model", "top3", "--n", str(CURVE_N), "--format", "json"]),
           lambda out: checks.check_curve_json(out, top3_prob(CURVE_N))),
    ]
    for p, _, _ in refs["table1"]:
        ops.append(Op(f"asymptotic p={p}",
                      lambda p=p: run_cli(["asymptotic", "--model", "reappearance", "--p", str(p)]),
                      lambda out, p=p: checks.check_asymptotic(out, p)))
    return ops


def _policy_op(n: int, p: float) -> Op:
    def check(pol):
        checks.check_optimal(pol.k_n, pol.value, reappearance_optimum(n, p))
    return Op(f"optimal_policy n={n} p={p!r}",
              lambda: reappearance.optimal_policy(reappearance.ProblemSpec(n=n, p=p)), check)


def _top3_op(n: int) -> Op:
    def check(pol):
        checks.check_optimal(pol.k_n, pol.value, top3_optimum(n))
    return Op(f"optimal_policy_top3 n={n}", lambda: top3.optimal_policy_top3(n), check)


def _solve_sweep(seed: int, refs: dict) -> list[Op]:
    rng = random.Random(f"solve-sweep:{seed}")
    grid = [(i + rng.random()) / 201 for i in range(201)]  # one p per stratum of [0, 1)
    ops = [_policy_op(n, p) for n in (100, 1000) for p in grid]
    ops += [_top3_op(n) for n in range(4, 2001)]
    for p, k_ref, printed in refs["table1"]:
        ops.append(Op(f"table1 p={p}",
                      lambda p=p: reappearance.optimal_policy(reappearance.ProblemSpec(n=100, p=p)),
                      lambda pol, k=k_ref, s=printed: checks.check_published(pol.k_n, pol.value, k, s)))
    for n, k_ref, printed in refs["table2"]:
        if n <= 100_000:
            ops.append(Op(f"table2 n={n}", lambda n=n: top3.optimal_policy_top3(n),
                          lambda pol, k=k_ref, s=printed: checks.check_published(pol.k_n, pol.value, k, s)))
    return ops


def _mc_op(label, n, p, k, trials, seed, objective, exact: Callable[[], float]) -> Op:
    return Op(label,
              lambda: simulator.estimate(n=n, p=p, k=k, trials=trials, seed=seed, objective=objective),
              lambda rep: checks.check_estimate(rep, trials, exact()), work=trials)


def _mc_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(64)


def _mc_small_n(seed: int, refs: dict) -> list[Op]:
    seeds = _mc_seeds("mc-small-n", seed)
    exact = refs["exact_n4"]
    return [
        _mc_op(f"estimate n=4 p={p} k={k}", 4, float(p), k, 200_000, next(seeds), "best",
               lambda p=p, k=k: float(exact[(p, k)]))
        for p in (Fraction(1, 4), Fraction(1, 2)) for k in range(1, 5)
    ]


def _mc_large_n(seed: int, refs: dict) -> list[Op]:
    seeds = _mc_seeds("mc-large-n", seed)
    return [
        # at p = 1 (and p = 0) the re-arrival tables are exact for the physical process
        _mc_op("estimate n=1000 p=1 k=470", 1000, 1.0, 470, 2000, next(seeds), "best",
               lambda: reappearance_f(1000, 1.0)[470]),
        _mc_op("estimate top3 n=1000 k=260", 1000, 0.0, 260, 5000, next(seeds), "top3",
               lambda: top3_prob(1000)[260]),
        # n = 10000 is past n >= 5462, where the chunk size sits at its 256-trial floor
        _mc_op("estimate top3 n=10000 k=2600", 10_000, 0.0, 2600, 512, next(seeds), "top3",
               lambda: top3_prob(10_000)[2600]),
    ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("cli-large", None, _cli_large),
    Workload("solve-sweep", "solves_per_s", _solve_sweep),
    Workload("mc-small-n", "trials_per_s", _mc_small_n),
    Workload("mc-large-n", "trials_per_s", _mc_large_n),
)}
