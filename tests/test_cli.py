import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from click.testing import CliRunner

import secretarylab.cli as cli
from secretarylab import (
    ProblemSpec, build_tables, errors, exact_top3, integrate_limit_system, top3_table,
)
from secretarylab.asymptotics import P_MIN_LIMIT
from secretarylab.cli import main, printed_tolerance
from secretarylab.errors import NonFinite


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def assert_rejected(result, *needles):
    """Invalid input: exit 2, a message naming the value, no traceback."""
    assert result.exit_code == 2, result.output
    for needle in needles:
        assert needle in result.output
    assert "Traceback" not in result.output


def test_reappearance_solve(runner):
    rec = run_json(runner, ["reappearance-solve", "--n", "100", "--p", "0.9"])
    assert rec["result"]["k_n"] == 51
    assert abs(rec["result"]["probability"] - 0.7546) <= 1e-4
    assert rec["provenance"]["tool"] == "secretarylab"

    rec = run_json(runner, ["reappearance-solve", "--n", "100", "--p", "0.999"])
    assert rec["result"]["k_n"] == 48
    assert abs(rec["result"]["probability"] - 0.7695) <= 1e-4


def test_reappearance_solve_rejects_n1(runner):
    assert_rejected(runner.invoke(main, ["reappearance-solve", "--n", "1", "--p", "0.5"]),
                    "n >= 2", "n=1")


def test_top3_solve(runner):
    rec = run_json(runner, ["top3-solve", "--n", "100000"])
    assert rec["result"]["k_n"] == 25997
    assert abs(rec["result"]["probability"] - 0.59473) <= 1e-5

    rec = run_json(runner, ["top3-solve", "--n", "10"])
    assert rec["result"]["k_n"] == 2
    assert abs(rec["result"]["probability"] - 0.6640) <= 1e-4


def test_top3_solve_rejects_small_n(runner):
    assert_rejected(runner.invoke(main, ["top3-solve", "--n", "3"]), "degenerate", "n=3")


def test_curve_reappearance_csv(runner):
    result = runner.invoke(
        main, ["curve", "--model", "reappearance", "--n", "100", "--p", "0.5"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "k,probability"
    assert len(lines) == 101
    rows = [line.split(",") for line in lines[1:]]
    best = max(rows, key=lambda r: float(r[1]))
    assert best[0] == "57"


def test_curve_top3_json(runner):
    result = runner.invoke(
        main, ["curve", "--model", "top3", "--n", "100", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    rows = payload["rows"]
    assert len(rows) == 100
    best = max(rows, key=lambda r: r["probability"])
    assert best["k"] == 26
    assert abs(best["probability"] - 0.6008) <= 1e-4


def test_curve_top3_small_matches_oracle(runner):
    result = runner.invoke(
        main, ["curve", "--model", "top3", "--n", "4", "--format", "json"]
    )
    payload = json.loads(result.output)
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        exact = float(exact_top3(4, row["k"]).probability)
        assert abs(row["probability"] - exact) <= 1e-12


def test_curve_writes_file(runner, tmp_path):
    out = tmp_path / "curve.csv"
    result = runner.invoke(
        main,
        ["curve", "--model", "top3", "--n", "10", "--out", str(out), "--precision", "8"],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,probability"
    assert len(lines) == 11
    assert len(lines[1].split(",")[1].split(".")[1]) == 8


def reference_curve(model, n, p, fmt, precision):
    """The curve as one json.dumps of dict rows, or as f-string CSV lines."""
    if model == "reappearance":
        ks, values = range(1, n + 1), build_tables(ProblemSpec(n=n, p=p)).f[1:].tolist()
    else:
        ks, values = range(n), top3_table(n).prob[:n].tolist()
    if fmt == "csv":
        return "k,probability\n" + "".join(f"{k},{v:.{precision}f}\n" for k, v in zip(ks, values))
    rows = [{"k": k, "probability": v} for k, v in zip(ks, values)]
    return json.dumps({"model": model, "n": n, "p": p, "rows": rows}) + "\n"


@pytest.mark.parametrize("block,model,n,fmt,precision", [
    (64, "reappearance", 200, "csv", 0),
    (64, "reappearance", 200, "csv", 8),
    (64, "reappearance", 128, "json", 6),
    (64, "top3", 200, "csv", 8),
    (64, "top3", 128, "csv", 0),
    (64, "top3", 200, "json", 6),
    (64, "top3", 4, "json", 6),
    (None, "top3", 2 * errors.BLOCK + 3, "json", 6),
    (None, "reappearance", 2 * errors.BLOCK + 3, "csv", 8),
])
def test_curve_streams_the_reference_render(runner, monkeypatch, tmp_path, block, model, n, fmt,
                                            precision):
    p = 0.25 if model == "reappearance" else 0.0
    expected = reference_curve(model, n, p, fmt, precision)
    if block is not None:
        monkeypatch.setattr(errors, "BLOCK", block)
    args = ["curve", "--model", model, "--n", str(n), "--format", fmt,
            "--precision", str(precision)] + (["--p", str(p)] if model == "reappearance" else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == expected

    out = tmp_path / "curve.out"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout == ""
    assert out.read_text() == expected


def test_curve_arithmetic_failure_writes_nothing(runner, monkeypatch, tmp_path):
    def diverge(n):
        raise NonFinite(f"prob left [0, 1] for n={n}")

    monkeypatch.setattr(cli, "top3_table", diverge)
    out = tmp_path / "curve.csv"
    for extra in ([], ["--out", str(out)]):
        result = runner.invoke(main, ["curve", "--model", "top3", "--n", "10"] + extra)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "prob left [0, 1] for n=10" in result.stderr
    assert not out.exists()


def test_curve_precision_reaches_every_digit_of_a_double(runner):
    # 2**-1074, the smallest double, has 1074 fractional digits; no double has more
    assert len(f"{2.0**-1074:.1074f}".rstrip("0").split(".")[1]) == 1074
    args = ["curve", "--model", "top3", "--n", "4", "--precision", "1074"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == reference_curve("top3", 4, 0.0, "csv", 1074)


def curve_peak_bytes(runner, path, n):
    args = ["curve", "--model", "reappearance", "--n", str(n), "--p", "0.5", "--out", str(path)]
    tracemalloc.start()
    try:
        result = runner.invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    return peak


def test_curve_reappearance_holds_f_alone(runner, tmp_path):
    # the four re-arrival tables take 32 B per entry; f alone takes 8.  Both
    # curves span two or more full blocks and print every k in five digits,
    # which keeps their formatting peaks alike (on Python 3.11: 7.5 B per
    # added entry, 32.0 when all four tables are copied)
    small, large = (curve_peak_bytes(runner, tmp_path / "curve.csv", blocks * errors.BLOCK)
                    for blocks in (2, 3))
    assert (large - small) / errors.BLOCK <= 10


def test_curve_requires_p_for_reappearance(runner):
    assert_rejected(runner.invoke(main, ["curve", "--model", "reappearance", "--n", "10"]),
                    "--p")


def test_table1_all_pass(runner):
    result = runner.invoke(main, ["table1"])
    assert result.exit_code == 0
    assert "table1: 9/9 rows pass" in result.output

    rec = run_json(runner, ["table1", "--format", "json"])
    rows = rec["result"]["rows"]
    assert len(rows) == 9
    assert all(r["status"] == "pass" for r in rows)


def test_table2_all_pass(runner):
    rec = run_json(runner, ["table2", "--format", "json"])
    rows = rec["result"]["rows"]
    assert len(rows) == 6
    assert all(r["status"] == "pass" for r in rows)
    assert rows[-1]["n"] == 10**6


def test_table2_full_adds_largest_row(runner):
    rec = run_json(runner, ["table2", "--full", "--format", "json"])
    rows = rec["result"]["rows"]
    assert len(rows) == 7
    assert rows[-1]["n"] == 10**7
    assert rows[-1]["k_n"] == 2599716
    assert rows[-1]["status"] == "pass"


def test_simulate_classical(runner):
    rec = run_json(
        runner,
        ["simulate", "--model", "reappearance", "--n", "100", "--p", "0",
         "--k", "37", "--trials", "100000", "--seed", "5"],
    )
    est = rec["result"]["estimate"]
    se = rec["result"]["std_error"]
    assert abs(est - 0.371) <= 3 * se + 5e-4
    assert rec["provenance"]["stream_layout"] == 5


def test_simulate_top3_published_run(runner):
    rec = run_json(
        runner,
        ["simulate", "--model", "top3", "--n", "100", "--k", "26",
         "--trials", "10000", "--seed", "9"],
    )
    assert 0.585 <= rec["result"]["estimate"] <= 0.625


def test_simulate_rejects_zero_trials(runner):
    result = runner.invoke(
        main,
        ["simulate", "--model", "top3", "--n", "100", "--k", "26",
         "--trials", "0", "--seed", "1"],
    )
    assert_rejected(result, "trials", "got 0")


def test_simulate_deterministic_output(runner):
    args = ["simulate", "--model", "reappearance", "--n", "30", "--p", "0.4",
            "--k", "12", "--trials", "5000", "--seed", "77"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_seed_env_override(runner, monkeypatch):
    monkeypatch.setenv("SECRETARYLAB_SEED", "314")
    rec = run_json(
        runner,
        ["simulate", "--model", "top3", "--n", "20", "--k", "5", "--trials", "100"],
    )
    assert rec["parameters"]["seed"] == 314


def test_asymptotic_top3(runner):
    rec = run_json(runner, ["asymptotic", "--model", "top3"])
    assert abs(rec["result"]["x_star"] - 0.2599) <= 1e-3
    assert abs(rec["result"]["probability"] - 0.5947) <= 1e-3
    assert run_json(runner, ["asymptotic", "--model", "top3", "--p", "0"]) == rec


@pytest.mark.parametrize("args", [
    ["curve", "--model", "top3", "--n", "10", "--format", "json"],
    ["simulate", "--model", "top3", "--n", "20", "--k", "5", "--trials", "10"],
    ["asymptotic", "--model", "top3"],
], ids=["curve", "simulate", "asymptotic"])
def test_top3_records_write_p_as_zero(runner, args):
    outputs = []
    for p in ([], ["--p", "0"], ["--p", "-0.0"]):
        result = runner.invoke(main, args + p)
        assert result.exit_code == 0, result.output
        assert re.search(r'"p": 0\.0[,}]', result.output), result.output
        outputs.append(result.output)
    assert outputs[1] == outputs[2] == outputs[0]


def test_asymptotic_reappearance_p0(runner):
    rec = run_json(runner, ["asymptotic", "--model", "reappearance", "--p", "0"])
    assert abs(rec["result"]["x_star"] - 1 / math.e) <= 1e-9
    assert abs(rec["result"]["probability"] - 1 / math.e) <= 1e-9


def test_asymptotic_reappearance_defaults(runner):
    rec = run_json(runner, ["asymptotic", "--model", "reappearance", "--p", "0.5"])
    assert rec["parameters"] == {"model": "reappearance", "p": 0.5}
    for model in (["reappearance", "--p", "0.5"], ["top3"]):
        for option in ("--step", "--epsilon"):
            result = runner.invoke(main, ["asymptotic", "--model", *model, option, "1e-4"])
            assert_rejected(result, "No such option", option)


@pytest.mark.parametrize("model", ["reappearance", "top3"])
def test_asymptotic_record_names_its_method(runner, model):
    rec = run_json(runner, ["asymptotic", "--model", model, "--p", "0"])
    assert rec["provenance"]["method"] == "closed form"
    assert list(rec["result"]) == ["x_star", "probability", "residual"]
    assert abs(rec["result"]["residual"]) <= 1e-9


def test_asymptotic_reappearance_p1(runner):
    rec = run_json(runner, ["asymptotic", "--model", "reappearance", "--p", "1"])
    assert abs(rec["result"]["x_star"] - 0.47) <= 0.01
    assert abs(rec["result"]["probability"] - 0.76) <= 0.01


# Each row: p, the optimum of the RK4 curve at step 1e-4 and offset 1e-4
# (its grid x and f), and the closed-form optimum that `asymptotic` prints.
# The closed-form values come from its Gauss-Jacobi evaluation, checked
# against a nested scipy.integrate.quad evaluation of the same closed form
# (f* within 4e-14).
@pytest.mark.parametrize("p,rk4_x,rk4_f,x_star,probability", [
    pytest.param(*row, id="-".join(map(str, row[:3]))) for row in [
        (0.0, 0.3679, 0.3678794405969906, 1 / math.e, 1 / math.e),
        (0.001, 0.371, 0.3709563265359931, 0.969605557, 0.996986435462),
        (0.1, 0.585, 0.608768721376196, 0.775090902, 0.898552189912),
        (0.25, 0.641, 0.735158768103104, 0.692919769, 0.832932454131),
        (0.5, 0.6055, 0.7614597736519556, 0.616205875, 0.783492188245),
        (0.75, 0.551, 0.7605104249759792, 0.553511433, 0.765928680039),
        (0.9, 0.5091, 0.7632516710842472, 0.509865713, 0.764848296290),
        (0.999, 0.4714, 0.7679047140121449, 0.471392590, 0.767925121987),
        (1.0, 0.4709, 0.7679672822797425, 0.470926544, 0.767974267280),
    ]
])
def test_asymptotic_reappearance_table1_p_pinned(runner, p, rk4_x, rk4_f, x_star, probability):
    rec = run_json(runner, ["asymptotic", "--model", "reappearance", "--p", str(p)])
    assert abs(rec["result"]["x_star"] - x_star) <= 1e-7
    assert abs(rec["result"]["probability"] - probability) <= 1e-10
    # the library's RK4 optimum at its default step and offset
    _, _, _, f = integrate_limit_system(p)
    i = int(f.values.argmax())
    assert f.grid[i] == rk4_x
    assert abs(f.values[i] - rk4_f) <= 1e-13


def test_asymptotic_reappearance_floor(runner):
    result = runner.invoke(main, ["asymptotic", "--model", "reappearance", "--p", "1e-9"])
    assert_rejected(result, "p=1e-09", str(P_MIN_LIMIT))
    # at the floor: a 40-digit series evaluation of the closed form (mpmath)
    # gives x* = 0.9990012509644, f* = 0.99999359010465; nested scipy quad
    # gives 0.999001252, 0.999993590055
    rec = run_json(runner, ["asymptotic", "--model", "reappearance", "--p", str(P_MIN_LIMIT)])
    assert abs(rec["result"]["x_star"] - 0.9990012509644) <= 1e-7
    assert abs(rec["result"]["probability"] - 0.99999359010465) <= 1e-10


def test_printed_tolerance():
    assert printed_tolerance("0.371") == pytest.approx(1e-3)
    assert printed_tolerance("0.6874") == pytest.approx(1e-4)
    assert printed_tolerance("0.59479") == pytest.approx(1e-5)


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_rejects_seed_outside_its_range(runner, seed):
    result = runner.invoke(
        main,
        ["simulate", "--model", "top3", "--n", "20", "--k", "5", "--trials", "10",
         "--seed", seed],
    )
    assert_rejected(result, "seed=", seed)


def test_simulate_accepts_largest_seed(runner):
    rec = run_json(
        runner,
        ["simulate", "--model", "top3", "--n", "20", "--k", "5", "--trials", "10",
         "--seed", str(2**128 - 1)],
    )
    assert rec["parameters"]["seed"] == 2**128 - 1


def test_simulate_top3_rejects_p(runner):
    result = runner.invoke(
        main,
        ["simulate", "--model", "top3", "--n", "20", "--p", "0.5", "--k", "5",
         "--trials", "10"],
    )
    assert_rejected(result, "--p")


def test_curve_rejects_negative_precision(runner):
    result = runner.invoke(main, ["curve", "--model", "top3", "--n", "10", "--precision", "-1"])
    assert_rejected(result, "--precision", "-1")


REAPPEARANCE_ASYMPTOTIC = ["asymptotic", "--model", "reappearance", "--p", "0.5"]


@pytest.mark.parametrize("args,needles", [
    pytest.param(["curve", "--model", "reappearance", "--n", "10", "--p", "2"],
                 ["p=2.0"], id="curve-p"),
    pytest.param(["simulate", "--model", "reappearance", "--n", "10", "--p", "0.5",
                  "--k", "0", "--trials", "10"], ["k=0"], id="simulate-k"),
    pytest.param(["simulate", "--model", "top3", "--n", "10", "--k", "10", "--trials", "10"],
                 ["k=10"], id="simulate-top3-k"),
    pytest.param(["simulate", "--model", "reappearance", "--n", "10", "--p", "1.5",
                  "--k", "3", "--trials", "10"], ["p=1.5"], id="simulate-p"),
    pytest.param(["simulate", "--model", "reappearance", "--n", "100", "--k", "43",
                  "--trials", "10"], ["--p"], id="simulate-p-missing"),
    pytest.param(["simulate", "--model", "top3", "--n", "3", "--k", "0", "--trials", "10"],
                 ["degenerate", "n=3"], id="simulate-top3-n-degenerate"),
    pytest.param(REAPPEARANCE_ASYMPTOTIC + ["--epsilon", "0.3"], ["--epsilon"],
                 id="asymptotic-epsilon"),
    pytest.param(REAPPEARANCE_ASYMPTOTIC + ["--step", "0.5"], ["--step"],
                 id="asymptotic-step"),
    pytest.param(["asymptotic", "--model", "reappearance", "--p", "1.5"], ["p=1.5"],
                 id="asymptotic-p"),
    pytest.param(REAPPEARANCE_ASYMPTOTIC + ["--step", "1e-9", "--epsilon", "1e-3"],
                 ["--step"], id="asymptotic-step-floor"),
    pytest.param(["curve", "--model", "top3", "--n", "10", "--p", "0.5"], ["--p"],
                 id="curve-top3-p"),
    pytest.param(["asymptotic", "--model", "top3", "--p", "0.5"], ["--p"],
                 id="asymptotic-top3-p"),
    pytest.param(["asymptotic", "--model", "top3", "--step", "5"], ["--step"],
                 id="asymptotic-top3-step"),
    pytest.param(["asymptotic", "--model", "top3", "--epsilon", "-3"], ["--epsilon"],
                 id="asymptotic-top3-epsilon"),
    pytest.param(["curve", "--model", "top3", "--n", "10", "--precision", "1075"],
                 ["--precision", "1075"], id="curve-precision-past-1074"),
    pytest.param(["curve", "--model", "top3", "--n", "10", "--out", "{missing}"],
                 ["--out", "{missing}"], id="curve-out"),
    pytest.param(["top3-solve", "--n", "1000000000000"], ["n=1000000000000"],
                 id="top3-solve-n-too-large"),
    pytest.param(["reappearance-solve", "--n", "1000000000000", "--p", "0.5"],
                 ["n=1000000000000"], id="reappearance-solve-n-too-large"),
    pytest.param(["simulate", "--model", "top3", "--n", "1000000000000", "--k", "1",
                  "--trials", "1"], ["n=1000000000000"], id="simulate-n-too-large"),
])
def test_rejects_invalid_input(runner, tmp_path, args, needles):
    def fill(text):  # the --out row writes into a directory that does not exist
        return text.replace("{missing}", str(tmp_path / "missing" / "x.csv"))

    result = runner.invoke(main, [fill(a) for a in args])
    assert_rejected(result, *map(fill, needles))


full_device = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@full_device
def test_write_failure_to_out_is_a_message(runner):
    # --out opens, but the write fails: an error of its own, not a bad option
    result = runner.invoke(main, ["curve", "--model", "top3", "--n", "4", "--out", "/dev/full"])
    assert result.exit_code == 1, result.output
    assert "Error: cannot write /dev/full: No space left on device" in result.output
    assert "Traceback" not in result.output


@full_device
@pytest.mark.parametrize("args", [
    pytest.param(["table1"], id="flush"),
    pytest.param(["curve", "--model", "top3", "--n", "100000"], id="write"),
])
def test_write_failure_to_stdout_is_a_message(args):
    # a real process: at exit Python flushes stdout once more, which must
    # neither raise again ("Exception ignored") nor change the exit code
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "secretarylab.cli", *args], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, "Error: cannot write -: No space left on device\n")


@pytest.mark.parametrize("args,limit,refuser", [
    pytest.param(["reappearance-solve", "--p", "0.5"], errors.MAX_N_REAPPEARANCE, "re-arrival solver",
                 id="reappearance"),
    pytest.param(["top3-solve"], errors.MAX_N_TOP3, "top-3 model", id="top3"),
])
def test_solve_refusal_states_the_n_limit(runner, args, limit, refuser):
    # the limits refuse the n that n * 96 (re-arrival) and n * 24 (top-3)
    # bytes past 2 GiB refused before the tables were built in blocks
    assert limit == (2 << 30) // (96 if args[0] == "reappearance-solve" else 24)
    result = runner.invoke(main, args + ["--n", str(limit + 1)])
    assert_rejected(result, f"{refuser} accepts n <= {limit}, got n={limit + 1}")
    assert "GiB" not in result.output


def test_stdout_is_not_kept_alive_after_a_command():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["table1"], standalone_mode=False)
    assert "table1: 9/9 rows pass" in buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_arithmetic_failure_exits_1(runner, monkeypatch):
    def diverge(n):
        raise NonFinite(f"prob left [0, 1] for n={n}")

    monkeypatch.setattr(cli, "top3_table", diverge)
    result = runner.invoke(main, ["curve", "--model", "top3", "--n", "10"])
    assert result.exit_code == 1
    assert "Error: prob left [0, 1] for n=10" in result.output
    assert "Traceback" not in result.output


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random takes about 19 ms, a tenth of a benchmark's
    # set-up; the simulator reaches it only when it draws
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, secretarylab, secretarylab.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
