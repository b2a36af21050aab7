"""secretarylab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
src/ directory, never from an installed copy.  A single process and thread
runs a closed loop: each operation starts when the previous one ends.  Passes
over the workload's operation list repeat while another one fits in
--seconds (at least MIN_PASSES), and every output is checked after its pass,
outside the timing.

With --trace 0 the last stdout line carries the end-to-end metrics that
BENCHMARK.json declares: pass_s (median wall time of one pass), setup_s
(median over SETUP_PROBES fresh interpreters, spread between the passes, of
the time until secretarylab and secretarylab.cli are imported and the inputs
and stored references are ready) and peak_rss_mib.  With --trace 1 it carries
the declared per-layer metrics from passes run under spans.Instrumentation,
alternating with untraced passes to give the tracing overhead.  The line
before the last is the full record: provenance, every metric with its median,
quartiles and sample count, the workload's throughput and failed_frac.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 21
MIN_PASSES = 3
MAX_MESSAGES = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def prepare(workload: str, seed: int):
    """Import the program and build the workload's operations and references."""
    import secretarylab
    import secretarylab.cli  # noqa: F401  (CLI users pay this import on every run)

    if SRC not in Path(secretarylab.__file__).resolve().parents:
        raise SystemExit(f"run.py: imported secretarylab from {secretarylab.__file__}, not {SRC}")
    import checks
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    return wl, wl.build(seed, checks.load_references())


def setup_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter until it reports prepare() done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"run.py: set-up probe failed with exit code {code}")
    return t1 - t0


def timed_pass(ops):
    """Run each operation once, in order; returns the per-operation times and outputs."""
    times, outs = [], []
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            out = exc
        times.append(perf_counter() - t0)
        outs.append(out)
    return times, outs


class Outcomes:
    """Operations attempted and failed: raised, or output rejected by its check.

    A CLI output byte-for-byte equal to one this operation already had
    accepted gets the same verdict without running the check again: parsing
    the large curve and table outputs would otherwise take a fifth of a
    cli-large run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.accepted: dict[int, bytes] = {}  # operation index -> digest of an accepted output

    def check(self, ops, outs):
        for i, (op, out) in enumerate(zip(ops, outs)):
            self.attempted += 1
            digest = hashlib.sha256(out.encode()).digest() if isinstance(out, str) else None
            if digest is not None and self.accepted.get(i) == digest:
                continue
            try:
                if isinstance(out, Exception):
                    raise out
                op.check(out)
            except Exception as exc:  # any error while checking rejects the output
                self.failed += 1
                if len(self.messages) < MAX_MESSAGES:
                    self.messages.append(f"{op.label}: {type(exc).__name__}: {exc}")
            else:
                if digest is not None:
                    self.accepted[i] = digest


def summary(values, unit):
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "samples": len(values)}


class Probes:
    """Set-up probes spread over the run, so they see the same machine as the passes.

    due() runs probes until their share of SETUP_PROBES keeps up with the share
    of the run's time gone; finish() runs any still owed.
    """

    def __init__(self, args, start: float):
        self.args, self.start, self.times = args, start, []

    def due(self):
        gone = (perf_counter() - self.start) / self.args.seconds if self.args.seconds > 0 else 1.0
        while len(self.times) < min(SETUP_PROBES, SETUP_PROBES * gone):
            self.times.append(setup_seconds(self.args))

    def finish(self):
        while len(self.times) < SETUP_PROBES:
            self.times.append(setup_seconds(self.args))


def run_untraced(ops, wl, args, outcomes):
    totals = []
    start = perf_counter()
    deadline = start + args.seconds
    probes = Probes(args, start)
    while len(totals) < MIN_PASSES or perf_counter() + statistics.median(totals) <= deadline:
        times, outs = timed_pass(ops)
        totals.append(sum(times))
        outcomes.check(ops, outs)
        del outs  # not alive during the next pass
        probes.due()
    probes.finish()
    metrics = {"pass_s": summary(totals, "s"), "setup_s": summary(probes.times, "s")}
    if wl.throughput:
        work = sum(op.work for op in ops)
        metrics[wl.throughput] = summary([work / t for t in totals], "1/s")
    return metrics


def run_traced(ops, args, outcomes):
    import spans
    import workloads

    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer, workloads, "run_cli")
    plain, traced = [], []
    deadline = perf_counter() + args.seconds
    while (len(traced) < MIN_PASSES
           or perf_counter() + statistics.median(plain) + statistics.median(traced) <= deadline):
        times, outs = timed_pass(ops)
        plain.append(sum(times))
        outcomes.check(ops, outs)
        inst.install()
        try:
            times, outs = timed_pass(ops)
        finally:
            inst.uninstall()
        traced.append(sum(times))
        outcomes.check(ops, outs)
        del outs
    n = len(traced)
    metrics = {name: {"value": v, "unit": unit, "samples": n}
               for name, (v, unit) in spans.layer_metrics(tracer, n, sum(traced)).items()}
    metrics["trace.pass_s"] = summary(traced, "s")
    metrics["trace.untraced_pass_s"] = summary(plain, "s")
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(plain) - 1.0, "unit": "ratio"}
    metrics["trace.spans"] = {"value": len(tracer.spans) / n, "unit": "count"}
    return metrics


def provenance(args) -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
            if git.returncode == 0:
                rev = git.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "secretarylab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "secretarylab" / "__init__.py").is_file():
        print(f"run.py: no program source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    wl, ops = prepare(args.workload, args.seed)
    outcomes = Outcomes()
    if args.trace:
        metrics = run_traced(ops, args, outcomes)
    else:
        metrics = run_untraced(ops, wl, args, outcomes)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB", "samples": 1}
        metrics["failed_frac"] = {"value": outcomes.failed / outcomes.attempted, "unit": "ratio",
                                  "samples": outcomes.attempted}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    reported = {k: metrics[k] for k in declared}

    for message in outcomes.messages:
        print(f"FAILED {message}", file=sys.stderr)
    record = {"benchmark": "secretarylab", "provenance": provenance(args),
              "attempted": outcomes.attempted, "failed": outcomes.failed, "metrics": metrics,
              "failures": outcomes.messages}
    print(json.dumps(record))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
