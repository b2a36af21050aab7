"""Command-line front end: solvers, table reproductions, curves, simulation.

Every command writes a deterministic record for identical inputs: stable
field order, repr-precision floats in JSON, fixed decimal formatting in
CSV.  Results go to stdout, errors to stderr as a message, never a
traceback.

The library checks every numeric domain itself; the command group maps its
errors to exit codes in one place.  Invalid input exits 2: a
``SecretaryLabError`` that is a ``ValueError`` or ``IndexError``, or a bad
option (including an unwritable ``--out``).  An arithmetic failure
(``NonFinite``, ``BracketError``) exits 1; success exits 0.  The commands
check only which options go with which ``--model``.

The default simulation seed may be overridden with the environment
variable SECRETARYLAB_SEED (an integer).
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .asymptotics import integrate_limit_system, optimal_x_top3
from .errors import SecretaryLabError
from .reappearance import ProblemSpec, build_tables, optimal_policy
from .simulator import estimate
from .top3 import optimal_policy_top3, top3_table

# Published reference rows (n=100 for the re-arrival model).  Probabilities
# are kept as printed strings; the reference prints are truncated rather
# than rounded, so a computed value matches when it lies within one unit of
# the last printed decimal place.
TABLE1_ROWS = [
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

TABLE2_ROWS = [
    (10, 2, "0.6640"),
    (100, 26, "0.6008"),
    (1_000, 260, "0.5953"),
    (10_000, 2599, "0.59479"),
    (100_000, 25997, "0.59473"),
    (1_000_000, 259971, "0.59473"),
]
TABLE2_FULL_ROW = (10_000_000, 2599716, "0.59472")

DEFAULT_SEED = 0


def printed_tolerance(printed: str) -> float:
    """One unit in the last printed decimal place."""
    decimals = len(printed.split(".")[1])
    return 10.0 ** (-decimals)


def _write(text: str, out: str = "-"):
    """Write text to the file ``out``, or to stdout for ``-``.

    Uses click.open_file, not click.echo: echo caches each stream it writes
    to, which keeps every redirected stdout alive for the life of the process.
    """
    try:
        fh = click.open_file(out, "w")
    except OSError as exc:
        raise click.BadParameter(f"cannot write {out}: {exc.strerror}", param_hint="--out") from exc
    with fh:
        fh.write(text)
        fh.flush()


def _emit(record: dict):
    _write(json.dumps(record) + "\n")


def _record(command: str, parameters: dict, result: dict) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "result": result,
        "provenance": {"tool": "secretarylab", "version": __version__},
    }


class _Main(click.Group):
    """Maps every library error raised under a command to its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SecretaryLabError as exc:
            error = click.ClickException(str(exc))
            if not isinstance(exc, ArithmeticError):
                error.exit_code = 2
            raise error from exc


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="secretarylab")
def main():
    """Threshold-rule hiring models: exact solvers, limits, simulation."""


@main.command("reappearance-solve")
@click.option("--n", type=int, required=True, help="Number of distinct candidates.")
@click.option("--p", type=float, required=True, help="Reappearance probability in [0, 1].")
def reappearance_solve(n: int, p: float):
    """Optimal threshold and success probability for the re-arrival model."""
    pol = optimal_policy(ProblemSpec(n=n, p=p))
    _emit(_record(
        "reappearance-solve",
        {"n": n, "p": p},
        {"k_n": pol.k_n, "k_over_n": pol.k_n / n, "probability": pol.value},
    ))


@main.command("top3-solve")
@click.option("--n", type=int, required=True, help="Number of candidates (n >= 4).")
def top3_solve(n: int):
    """Optimal threshold and success probability for the top-3 objective."""
    pol = optimal_policy_top3(n)
    _emit(_record(
        "top3-solve",
        {"n": n},
        {"k_n": pol.k_n, "k_over_n": pol.k_n / n, "probability": pol.value},
    ))


@main.command("curve")
@click.option("--model", type=click.Choice(["reappearance", "top3"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, default=None, help="Reappearance probability (reappearance model only).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(writable=True, allow_dash=True), default="-", show_default=True)
@click.option("--precision", type=click.IntRange(min=0), default=6, show_default=True,
              help="CSV fractional digits.")
def curve(model: str, n: int, p: float | None, fmt: str, out: str, precision: int):
    """Write the full success-probability curve (k, probability)."""
    p = _check_p(model, p)
    if model == "reappearance":
        tables = build_tables(ProblemSpec(n=n, p=p))
        ks = range(1, n + 1)
        values = tables.f[1:].tolist()
    else:
        table = top3_table(n)
        ks = range(0, n)
        values = table.prob[:n].tolist()

    if fmt == "csv":
        lines = ["k,probability"]
        lines += [f"{k},{v:.{precision}f}" for k, v in zip(ks, values)]
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps({
            "model": model,
            "n": n,
            "p": p,
            "rows": [{"k": k, "probability": v} for k, v in zip(ks, values)],
        }) + "\n"

    _write(payload, out)


def _check_p(model: str, p: float | None) -> float:
    """The p a record names: --p for the re-arrival model, 0.0 for the top-3 model.

    --p belongs to the re-arrival model; the top-3 model accepts it only as 0.
    """
    if model == "reappearance" and p is None:
        raise click.BadParameter("--p is required for the reappearance model", param_hint="--p")
    if model == "top3":
        if p not in (None, 0.0):
            raise click.BadParameter("--p does not apply to the top-3 model", param_hint="--p")
        return 0.0
    return p


def _reproduce_table(fmt: str, name: str, key: str, references, solve):
    """Solve each published row, check it against the print, and print the table.

    ``solve`` maps a row's parameter (its ``key`` column) to (n, OptimalPolicy).
    """
    rows = []
    for x, k_ref, printed in references:
        n, pol = solve(x)
        ok = pol.k_n == k_ref and abs(pol.value - float(printed)) <= printed_tolerance(printed)
        rows.append({
            key: x, "k_n": pol.k_n, "k_over_n": pol.k_n / n,
            "probability": pol.value, "reference_k_n": k_ref,
            "reference_probability": printed, "status": "pass" if ok else "FAIL",
        })
    _print_table(fmt, name, rows)


@main.command("table1")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def table1(fmt: str):
    """Reproduce the published n=100 re-arrival table and check each row."""
    _reproduce_table(fmt, "table1", "p", TABLE1_ROWS,
                     lambda p: (100, optimal_policy(ProblemSpec(n=100, p=p))))


@main.command("table2")
@click.option("--full", is_flag=True, help="Include the n=1e7 row (slower).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def table2(full: bool, fmt: str):
    """Reproduce the published top-3 table over n and check each row."""
    todo = TABLE2_ROWS + ([TABLE2_FULL_ROW] if full else [])
    _reproduce_table(fmt, "table2", "n", todo, lambda n: (n, optimal_policy_top3(n)))


def _print_table(fmt: str, name: str, rows: list[dict]):
    if fmt == "json":
        _emit(_record(name, {}, {"rows": rows}))
        return
    columns = tuple(rows[0])
    cells = [[_fmt_cell(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells]
    n_fail = sum(row["status"] != "pass" for row in rows)
    lines.append(f"{name}: {len(rows) - n_fail}/{len(rows)} rows pass"
                 + (f", {n_fail} FAIL" if n_fail else ""))
    _write("\n".join(lines) + "\n")


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


@main.command("simulate")
@click.option("--model", type=click.Choice(["reappearance", "top3"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, default=0.0, show_default=True)
@click.option("--k", type=int, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=click.IntRange(0, 2**128 - 1), default=DEFAULT_SEED,
              envvar="SECRETARYLAB_SEED", show_default=True, show_envvar=True)
def simulate(model: str, n: int, p: float, k: int, trials: int, seed: int):
    """Monte Carlo estimate of a policy's success probability."""
    p = _check_p(model, p)
    objective = "top3" if model == "top3" else "best"
    report = estimate(n=n, p=p, k=k, trials=trials, seed=seed, objective=objective)
    _emit(_record(
        "simulate",
        {"model": model, "n": n, "p": p, "k": k, "trials": trials, "seed": seed},
        {
            "successes": report.successes,
            "estimate": report.estimate,
            "std_error": report.std_error,
        },
    ))


@main.command("asymptotic")
@click.option("--model", type=click.Choice(["reappearance", "top3"]), required=True)
@click.option("--p", type=float, default=None, help="Reappearance probability (reappearance model only).")
@click.option("--step", type=float, default=1e-4, show_default=True)
@click.option("--epsilon", type=float, default=1e-4, show_default=True)
def asymptotic(model: str, p: float | None, step: float, epsilon: float):
    """Limiting optimal threshold as n grows without bound."""
    p = _check_p(model, p)
    if model == "top3":
        root = optimal_x_top3(1e-9)
        _emit(_record(
            "asymptotic",
            {"model": model, "p": p},
            {
                "x_star": root.x_star,
                "probability": root.value_at_root,
                "residual": root.residual,
            },
        ))
        return
    _, _, _, f_curve = integrate_limit_system(p, step=step, epsilon=epsilon)
    i = int(f_curve.values.argmax())
    _emit(_record(
        "asymptotic",
        {"model": model, "p": p, "step": step, "epsilon": epsilon},
        {
            "x_star": float(f_curve.grid[i]),
            "probability": float(f_curve.values[i]),
        },
    ))


if __name__ == "__main__":
    sys.exit(main())
