#!/usr/bin/env python3
"""Repeat the benchmark and judge whether its end-to-end metrics are steady.

    # ten seeds on every workload, kept for a later comparison
    python3 perfbench/steady.py --seeds 1-10 --out first.json
    # two sets of runs agree when no median moved by more than its bound
    python3 perfbench/steady.py --compare first.json second.json

Every workload in BENCHMARK.json runs once per seed for its run_seconds.
For each workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
against the metric's bound from BENCHMARK.json. A spread above the bound
fails, as does a run that is incorrect or has a failed job; a spread above
a third of the bound is flagged "wide". The --out file
holds every run's result line and its '#' notes (machine record, failing
input classes) plus the per-metric summary.
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


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = load_spec()["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "notes": [l for l in lines[:-1] if l.startswith("#")],
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    """{metric: {"median", "q1", "q3", "spread"}} over a workload's runs."""
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    return out


def report(data: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    steady = True
    for workload, entry in data["workloads"].items():
        runs = entry["runs"]
        bad = [r["seed"] for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
        print(f"{workload}: {len(runs)} runs, seeds with an incorrect or failed job: {bad or 'none'}")
        steady &= not bad
        for name, s in entry["summary"].items():
            bound = bounds[name]
            verdict = "ok"
            if s["spread"] > bound:
                verdict, steady = "FAIL", False
            elif s["spread"] > bound / 3:
                verdict = "wide"
            print(f"  {name:<12} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"spread {s['spread']:7.2%}  bound {bound:5.0%}  {verdict}")
    return steady


def compare(first: dict, second: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    agree = True
    for workload, entry in first["workloads"].items():
        for name, s in entry["summary"].items():
            med_a, med_b = s["median"], second["workloads"][workload]["summary"][name]["median"]
            moved = abs(med_b - med_a) / abs(med_a)
            verdict = "FAIL" if moved > bounds[name] else "ok"
            agree &= verdict == "ok"
            print(f"{workload:<12} {name:<12} {med_a:12.6g} -> {med_b:12.6g}  "
                  f"moved {moved:7.2%}  bound {bounds[name]:5.0%}  {verdict}")
    return agree


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    p.add_argument("--out", help="write runs and summary here as JSON")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)

    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(first, second) else 1

    spec = load_spec()
    seconds = spec["run_seconds"]
    data = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result'])}", file=sys.stderr)
        data["workloads"][workload] = {"runs": runs, "summary": summarize(runs)}
    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    return 0 if report(data) else 1


if __name__ == "__main__":
    sys.exit(main())
