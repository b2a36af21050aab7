"""Run the benchmark over several seeds and summarise each metric across runs.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--seconds 15]
                                 [--traced-runs 1] [--out perfbench/baseline/BENCH_x.json]

Each run is `run.py --workload W --seed S --seconds T --trace 0`, in its own
process, workload by workload.  For every end-to-end metric the summary gives
the median, quartiles and spread, (q3 - q1) / median, of the per-run values;
with --traced-runs N the first N seeds are also run with --trace 1 and their
per-layer metrics are kept.  The table printed at the end names every metric
with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"collect.py: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    record_line, result_line = proc.stdout.splitlines()[-2:]
    return {"record": json.loads(record_line), "result": json.loads(result_line)}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            res = runs[-1]["result"]
            print(f"{name} seed={seed} correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
        traced = [run_once(name, seed, seconds, 1) for seed in seeds[:args.traced_runs]]
        metrics = {}
        for key in runs[0]["record"]["metrics"]:
            unit = runs[0]["record"]["metrics"][key]["unit"]
            metrics[key] = {"unit": unit,
                            **spread([r["record"]["metrics"][key]["value"] for r in runs])}
        report["workloads"][name] = {
            "provenance": runs[0]["record"]["provenance"],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "metrics": metrics,
            "runs": [r["record"] for r in runs],
            "traced_runs": [t["record"] for t in traced],
        }

    print(f"{'workload':<12} {'metric':<16} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8}")
    for name, w in report["workloads"].items():
        for key, m in w["metrics"].items():
            s = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{name:<12} {key:<16} {m['unit']:<6} {m['median']:>12.6g} {m['q1']:>12.6g} "
                  f"{m['q3']:>12.6g} {s:>8}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
