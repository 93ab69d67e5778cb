#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics, and agreement of repeated sets.

Runs `python3 perfbench/run.py` once per seed for each workload (from the
root of the checkout) and prints, per workload and metric, the median and
the quartile spread (Q3 - Q1) / median, as statistics.quantiles(n=4) gives
them, next to the metric's bound in BENCHMARK.json. A spread above a third
of its bound marks the metric unsteady (setup_s is listed but not gated by
that rule). Across seeds, the spread holds seed-to-seed variation as well
as run noise.

With --sets 2 the same seeds run again, set after set, and each metric's
second median is compared with the first: a gap in the worse direction
beyond the metric's bound marks the sets as disagreeing. This is the check
that two sets of runs of the same code agree.

Each run's record also keeps the health fields of its detail file
(perfbench/out/<workload>-seed<N>-trace<T>.json): host steal, the ungated
wall-clock figures (words_per_s, latency_p50_us, latency_p99_us,
setup_wall_s, cpu_utilisation) and, for traced runs, the
TCP-vs-in-process comparison; the wall-clock figures' spreads are printed
too. With --trace 1 the per-layer metrics are summarised,
net.tcp_inprocess_ratio among them.

  python3 perfbench/steady.py --runs 10 [--sets 2] [--workload W ...]
                              [--seed0 1] [--trace 0|1] [--json out.json]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WALL = ("words_per_s", "latency_p50_us", "latency_p99_us", "setup_wall_s",
        "cpu_utilisation")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def run_once(workload: str, seed: int, seconds: int, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["health"] = {
        "host_steal_ratio": detail["host_steal_ratio"],
        "steal_in_windows_used": detail["latency_tail"]["steal_in_windows_used"],
    }
    for key in WALL + ("failed_ratio",):
        result["health"][key] = detail["wall"][key]["value"]
    if "comparison" in detail:
        result["health"]["comparison"] = detail["comparison"]
    return result


def summarize(runs: list, bounds: dict) -> dict:
    summary = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[metric] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else float("inf"),
                           "bound": bounds.get(metric, {}).get("bound"),
                           "unit": runs[0]["metrics"][metric]["unit"]}
    for key in WALL + ("host_steal_ratio",):
        values = [r["health"][key] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["(" + key + ")"] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "bound": None}
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": int(args.trace),
              "sets": args.sets, "workloads": {}}
    problems = []
    for name in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + i
                t0 = time.monotonic()
                result = run_once(name, seed, spec["run_seconds"], args.trace)
                result["seed"] = seed
                result["wall_s"] = round(time.monotonic() - t0, 2)
                runs.append(result)
                h = result["health"]
                print(f"{name} set {k + 1} seed {seed}: {result['wall_s']} s, "
                      f"correct {result['correct']}, failed {result['failed']}/"
                      f"{result['attempted']}, steal {h['host_steal_ratio']:.3f}",
                      file=sys.stderr)
            summary = summarize(runs, bounds)
            for metric, m in summary.items():
                flag = ""
                if (m["bound"] is not None and metric != "setup_s"
                        and m["spread"] > m["bound"] / 3):
                    flag = "  UNSTEADY"
                    problems.append(f"{name}/{metric} set {k + 1} spread")
                print(f"{name:16s} set {k + 1} {metric:32s} median "
                      f"{m['median']:14.6g}  spread {m['spread']:7.4f}  bound "
                      f"{m['bound']}{flag}")
            sets.append({"summary": summary, "runs": runs})
        entry = {"sets": sets}
        if args.sets > 1:
            gaps = {}
            for metric, m in sets[0]["summary"].items():
                if metric not in bounds:
                    continue
                first, last = m["median"], sets[-1]["summary"][metric]["median"]
                worse = (last - first) / first
                if bounds[metric]["better"] == "higher":
                    worse = -worse
                gaps[metric] = worse
                flag = ""
                if worse > bounds[metric]["bound"]:
                    flag = "  DISAGREE"
                    problems.append(f"{name}/{metric} sets disagree")
                print(f"{name:16s} {metric:32s} set {args.sets} vs set 1: "
                      f"{100 * worse:+7.2f}% worse (bound "
                      f"{100 * bounds[metric]['bound']:.0f}%){flag}")
            entry["worse_gap_last_vs_first"] = gaps
        report["workloads"][name] = entry
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    if problems:
        print("problems: " + ", ".join(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
