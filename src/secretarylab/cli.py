"""Command-line front end: solvers, table reproductions, curves, simulation.

Every command writes a deterministic record for identical inputs: stable
field order, repr-precision floats in JSON, fixed decimal formatting in
CSV.  Results go to stdout, errors to stderr as a message, never a
traceback.

The library owns every numeric range, ``--seed``'s included; the command
group maps its errors to exit codes in one place.  Invalid input exits 2: a
``SecretaryLabError`` that is a ``ValueError`` or ``IndexError``, or a bad
option (including an unwritable ``--out``).  An arithmetic failure
(``NonFinite``, ``BracketError``) or a failed write to an opened file or
stdout exits 1; success exits 0.  The commands check only option
combinations (which options go with which ``--model``; ``--p`` has no
default and is required for the re-arrival model) and ``--precision``.

``asymptotic`` prints the large-n optimum of either model from its closed
form, located by bisection; its record's ``provenance.method`` says so.

The default simulation seed may be overridden with the environment
variable SECRETARYLAB_SEED (an integer).
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__, errors
from .asymptotics import optimal_x_reappearance, optimal_x_top3
from .errors import SecretaryLabError
from .reappearance import ProblemSpec, _check_buildable, _table_blocks, copy_blocks, optimal_policy
from .simulator import STREAM_LAYOUT, estimate
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


def _write(chunks, out: str = "-"):
    """Write each string of ``chunks`` to the file ``out``, or to stdout for ``-``.

    Uses click.open_file, not click.echo: echo caches each stream it writes
    to, which keeps every redirected stdout alive for the life of the process.
    A file that cannot be opened is a bad option (exit 2); a write or flush
    that fails, as on a full disk, is an error of its own (exit 1).
    """
    try:
        fh = click.open_file(out, "w")
    except OSError as exc:
        raise click.BadParameter(f"cannot write {out}: {exc.strerror}", param_hint="--out") from exc
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
    except OSError as exc:
        raise click.ClickException(f"cannot write {out}: {exc.strerror}") from exc


def _emit(record: dict):
    _write([json.dumps(record) + "\n"])


def _policy_fields(n: int, pol) -> dict:
    """The result fields of OptimalPolicy ``pol`` in a record, in their printed order."""
    return {"k_n": pol.k_n, "k_over_n": pol.k_n / n, "probability": pol.value}


def _record(command: str, parameters: dict, result: dict, **provenance) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "result": result,
        "provenance": {"tool": "secretarylab", "version": __version__, **provenance},
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
    _emit(_record("reappearance-solve", {"n": n, "p": p}, _policy_fields(n, pol)))


@main.command("top3-solve")
@click.option("--n", type=int, required=True, help="Number of candidates (n >= 4).")
def top3_solve(n: int):
    """Optimal threshold and success probability for the top-3 objective."""
    _emit(_record("top3-solve", {"n": n}, _policy_fields(n, optimal_policy_top3(n))))


@main.command("curve")
@click.option("--model", type=click.Choice(["reappearance", "top3"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, default=None, help="Reappearance probability (reappearance model only).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(writable=True, allow_dash=True), default="-", show_default=True)
@click.option("--precision", type=click.IntRange(0, 1074), default=6, show_default=True,
              help="CSV fractional digits (a double has at most 1074).")
def curve(model: str, n: int, p: float | None, fmt: str, out: str, precision: int):
    """Write the full success-probability curve (k, probability)."""
    p = _check_p(model, p)
    if model == "reappearance":  # f alone, copied from the solver's blocks
        (f,) = copy_blocks(_table_blocks(*_check_buildable(ProblemSpec(n=n, p=p))), n + 1)
        k0, values = 1, f[1:]
    else:
        k0, values = 0, top3_table(n).prob[:n]

    if fmt == "csv":
        head, row, sep, tail = "k,probability\n", f"%d,%.{precision}f\n", "", ""
    else:
        # the record json.dumps writes, with the rows spliced into "rows": []
        empty = json.dumps({"model": model, "n": n, "p": p, "rows": []})
        head, row, sep, tail = empty[:-2], '{"k": %d, "probability": %r}', ", ", empty[-2:] + "\n"
    _write(_rows(k0, values, head, row, sep, tail), out)


def _rows(k0: int, values, head: str, row: str, sep: str, tail: str):
    """head, then one ``row % (k, value)`` per value joined by sep, then tail.

    Formats ``errors.BLOCK`` rows per string, so no per-row objects outlive
    their block.  %r is a float's repr, as json.dumps writes it.
    """
    yield head
    for lo in range(0, len(values), errors.BLOCK):
        block = values[lo:lo + errors.BLOCK].tolist()
        cells = [None] * (2 * len(block))
        cells[::2] = range(k0 + lo, k0 + lo + len(block))
        cells[1::2] = block
        yield (sep if lo else "") + sep.join([row] * len(block)) % tuple(cells)
    yield tail


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
            key: x, **_policy_fields(n, pol), "reference_k_n": k_ref,
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
@click.option("--full", is_flag=True, help="Include the n=1e7 row.")
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
    _write(["\n".join(lines) + "\n"])


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


@main.command("simulate")
@click.option("--model", type=click.Choice(["reappearance", "top3"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, default=None, help="Reappearance probability (reappearance model only).")
@click.option("--k", type=int, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=DEFAULT_SEED,
              envvar="SECRETARYLAB_SEED", show_default=True, show_envvar=True)
def simulate(model: str, n: int, p: float | None, k: int, trials: int, seed: int):
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
        stream_layout=STREAM_LAYOUT,
    ))


@main.command("asymptotic")
@click.option("--model", type=click.Choice(["reappearance", "top3"]), required=True)
@click.option("--p", type=float, default=None, help="Reappearance probability (reappearance model only).")
def asymptotic(model: str, p: float | None):
    """Limiting optimal threshold as n grows without bound."""
    p = _check_p(model, p)
    root = optimal_x_top3() if model == "top3" else optimal_x_reappearance(p)
    result = {"x_star": root.x_star, "probability": root.value_at_root, "residual": root.residual}
    _emit(_record("asymptotic", {"model": model, "p": p}, result, method="closed form"))


if __name__ == "__main__":
    sys.exit(main())
