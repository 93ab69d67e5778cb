#!/usr/bin/env python3
"""Fold per-leg BENCH_*.json artifacts into one perf-trajectory table.

Every bench binary writes a BENCH_*.json (see bench/bench_common.h) and CI
uploads one artifact per matrix leg. Downloading those artifacts yields a
directory per leg, each holding the same three file names — this script
merges any number of them into a single markdown table so a perf trajectory
across legs (and across downloaded runs) is one page instead of N job logs.

Usage:
    scripts/bench_summary.py [path ...]

Each path may be a BENCH_*.json file or a directory searched recursively
for files matching BENCH_*.json. With no arguments the current directory
is searched. The leg label for a result is the file's parent directory
(relative, '.' for the working directory), which matches the artifact
names CI uses (bench-json-<compiler>-<kernel>-<precision>).

Standard library only — the CI runners and the dev image both lack
third-party Python packages by design.
"""

import json
import os
import sys


def find_bench_files(paths):
    """Yield (leg, path) for every BENCH_*.json under the given paths."""
    if not paths:
        paths = ["."]
    seen = set()
    for p in paths:
        if os.path.isfile(p):
            candidates = [p]
        elif os.path.isdir(p):
            candidates = []
            for root, _dirs, files in os.walk(p):
                for name in sorted(files):
                    if name.startswith("BENCH_") and name.endswith(".json"):
                        candidates.append(os.path.join(root, name))
        else:
            print(f"warning: {p}: no such file or directory", file=sys.stderr)
            continue
        for c in candidates:
            real = os.path.realpath(c)
            if real in seen:
                continue
            seen.add(real)
            leg = os.path.relpath(os.path.dirname(c) or ".")
            yield leg, c


def load_rows(leg, path):
    """(result_rows, phase_rows, floor_rows): flat dicts annotated with leg
    + host."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    host = doc.get("host", {})
    bench = doc.get("bench", os.path.basename(path))
    rows = []
    for r in doc.get("results", []):
        rows.append(
            {
                "leg": leg,
                "bench": bench,
                "name": r.get("name", "?"),
                "kernel": r.get("kernel", "?"),
                "precision": r.get("precision", "?"),
                "words_per_s": float(r.get("words_per_s", 0.0)),
                "f32_detectors": r.get("f32_detectors"),
                "f64_rescue_detectors": r.get("f64_rescue_detectors"),
                "host_kernel": host.get("active_kernel", "?"),
            }
        )
    phases = []
    for p in doc.get("phases", []):
        phases.append(
            {
                "leg": leg,
                "bench": bench,
                "name": p.get("name", "?"),
                "phase": p.get("phase", "?"),
                "mean_seconds": float(p.get("mean_seconds", 0.0)),
                "count": int(p.get("count", 0)),
            }
        )
    floors = []
    for f in doc.get("floors", []):
        floors.append(
            {
                "leg": leg,
                "bench": bench,
                "name": f.get("name", "?"),
                "ratio": float(f.get("ratio", 0.0)),
                "floor": float(f.get("floor", 0.0)),
            }
        )
    return rows, phases, floors


def fmt_rate(words_per_s):
    if words_per_s >= 1e6:
        return f"{words_per_s / 1e6:.1f}M"
    if words_per_s >= 1e3:
        return f"{words_per_s / 1e3:.1f}k"
    return f"{words_per_s:.0f}"


def fmt_mix(row):
    if row["f32_detectors"] is None:
        return ""
    return f"{row['f32_detectors']}f32/{row['f64_rescue_detectors']}f64"


def fmt_mean_us(seconds):
    return f"{seconds * 1e6:.1f}us"


def main(argv):
    rows = []
    phase_rows = []
    floor_rows = []
    for leg, path in find_bench_files(argv[1:]):
        try:
            file_rows, file_phases, file_floors = load_rows(leg, path)
            rows.extend(file_rows)
            phase_rows.extend(file_phases)
            floor_rows.extend(file_floors)
        except (OSError, ValueError) as e:
            print(f"warning: {path}: {e}", file=sys.stderr)
    if not rows:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1

    rows.sort(key=lambda r: (r["bench"], r["name"], r["kernel"],
                             r["precision"], r["leg"]))
    header = ["bench", "experiment", "kernel", "precision", "words/s",
              "detector mix", "leg"]
    table = [
        [r["bench"], r["name"], r["kernel"], r["precision"],
         fmt_rate(r["words_per_s"]), fmt_mix(r), r["leg"]]
        for r in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(header)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    print(line(header))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in table:
        print(line(row))

    if phase_rows:
        # The per-phase sections benches emit (bench_common.h add_phase):
        # where a served request's lifetime went, as its own table.
        phase_rows.sort(key=lambda r: (r["bench"], r["name"], r["phase"],
                                       r["leg"]))
        pheader = ["bench", "experiment", "phase", "mean", "count", "leg"]
        ptable = [
            [r["bench"], r["name"], r["phase"], fmt_mean_us(r["mean_seconds"]),
             str(r["count"]), r["leg"]]
            for r in phase_rows
        ]
        pwidths = [max(len(h), *(len(row[i]) for row in ptable))
                   for i, h in enumerate(pheader)]
        def pline(cells):
            return "| " + " | ".join(
                c.ljust(w) for c, w in zip(cells, pwidths)) + " |"
        print()
        print("phase breakdown:")
        print(pline(pheader))
        print("|" + "|".join("-" * (w + 2) for w in pwidths) + "|")
        for row in ptable:
            print(pline(row))

    if floor_rows:
        # The ratios the benches gate CI on (bench_common.h add_floor),
        # e.g. the fused program over staged evaluation on cached plans.
        floor_rows.sort(key=lambda r: (r["bench"], r["name"], r["leg"]))
        fheader = ["bench", "ratio", "measured", "floor", "verdict", "leg"]
        ftable = [
            [r["bench"], r["name"], f"{r['ratio']:.2f}x",
             f"{r['floor']:.2f}x",
             "ok" if r["ratio"] >= r["floor"] else "BELOW FLOOR", r["leg"]]
            for r in floor_rows
        ]
        fwidths = [max(len(h), *(len(row[i]) for row in ftable))
                   for i, h in enumerate(fheader)]
        def fline(cells):
            return "| " + " | ".join(
                c.ljust(w) for c, w in zip(cells, fwidths)) + " |"
        print()
        print("floors:")
        print(fline(fheader))
        print("|" + "|".join("-" * (w + 2) for w in fwidths) + "|")
        for row in ftable:
            print(fline(row))

    legs = sorted({(r["leg"], r["host_kernel"]) for r in rows})
    print()
    for leg, host_kernel in legs:
        print(f"{leg}: active kernel {host_kernel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
