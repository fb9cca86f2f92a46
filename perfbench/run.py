#!/usr/bin/env python3
"""iterbern benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; iterbern is imported from its ``src/``.
One client sends the next job only after the previous one finished, for
``--seconds`` of wall time. Every job's outputs are then checked against the
oracle in ``oracle.py``, outside the timed region, and the workload's fixed
known-defect probe (``jobs.DEFECT_PROBES``) runs once, untimed, and is
checked the same way. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs every job untraced and then traced
and prints the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread, at most nproc on any machine; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

SETUP_REPEATS = 7
# The warm-up job is the first job of SETUP_SEED's stream whatever --seed is,
# so setup_s does not depend on which job a seed happens to draw first.
SETUP_SEED = 0
PROBE_LIMIT_S = 60

# The speed of a shared machine drifts by up to ~30% over minutes, which is
# more than any bound could absorb. The timing metrics are therefore scaled to
# a reference speed, measured by a benchmark-owned pure-Python loop run every
# CAL_EVERY_S: its time tracks the drift of the jobs' time (10 s windows of
# repeated grid jobs spread 26% raw and 5.5% after dividing by it). CAL_REF_S
# is the loop's median time on the machine the baseline was measured on.
CAL_REF_S = 0.002
CAL_EVERY_S = 0.1
LAYERS = ("core", "iterated", "calculus", "szasz", "qbern", "functions", "cli", "bench")
CLI_COMMANDS = ("approx", "derivative", "integrate", "table", "szasz", "qbernstein")


def import_library():
    """Import iterbern from this checkout's src/, or exit without a result."""
    if not (SRC / "iterbern" / "__init__.py").is_file():
        sys.exit(f"perfbench: no iterbern sources at {SRC.name}/iterbern under {ROOT}")
    sys.path.insert(0, str(SRC))
    import iterbern

    if Path(iterbern.__file__).resolve().parent != SRC / "iterbern":
        sys.exit(f"perfbench: imported iterbern from {iterbern.__file__}, not from this checkout")
    # bernstein_matrix warns on every n > 30 even at finite k; outputs are
    # checked against the oracle instead.
    warnings.simplefilter("ignore", RuntimeWarning)


@dataclass
class Record:
    spec: dict
    latency: float
    out: dict | None = None
    error: str | None = None
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)


def run_job(runner, tracer, spec):
    try:
        return runner.run(tracer, spec), None
    except Exception as exc:  # a failing job is counted, the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def calibration_loop() -> int:
    x = 0
    for i in range(30000):
        x += i * i % 7
    return x


class Speedometer:
    """Times calibration_loop now and then; factor > 1 means slower than reference."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def poll(self) -> float:
        """Sample if CAL_EVERY_S has passed since the last sample; return the time spent."""
        if time.perf_counter() < self._next:
            return 0.0
        elapsed = self.sample()
        self._next = time.perf_counter() + CAL_EVERY_S
        return elapsed

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / CAL_REF_S


def measure_setup(args, repeats: int, speed: Speedometer) -> list[float]:
    """Wall times of fresh processes that each import iterbern and run the warm-up job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    times = []
    for _ in range(repeats):
        speed.sample()
        start = time.perf_counter()
        # A blocking wait: Popen.wait(timeout=...) polls in steps of up to 50 ms,
        # which would quantize the measurement. The probe bounds itself instead.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        code = proc.wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
    return times


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def timings(records, wall, setup_s) -> dict:
    """Wall-clock figures of the run, as measured."""
    lat_ms = [r.latency * 1e3 for r in records]
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(records) / wall,
        "job_ms_p50": statistics.median(lat_ms),
        "job_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
    }


def end_to_end(records, raw: dict, factor: float, peak_rss_mb) -> dict:
    """Timings scaled to the reference speed, plus accuracy and memory."""
    from oracle import digits

    errors = [c.rel_err for r in records for c in r.checks]
    return {
        "setup_s": (raw["setup_s"] / factor, "s"),
        "jobs_per_s": (raw["jobs_per_s"] * factor, "1/s"),
        "job_ms_p50": (raw["job_ms_p50"] / factor, "ms"),
        "job_ms_p90": (raw["job_ms_p90"] / factor, "ms"),
        "digits_min": (min(map(digits, errors)) if errors else 0.0, "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def workload_properties(records) -> dict:
    from jobs import dense_operators, operator_bytes, operator_uses

    seen, uses, repeats = set(), 0, 0
    for r in records:
        for key in operator_uses(r.spec, r.out):
            uses += 1
            repeats += key in seen
            seen.add(key)
    dense = [d for r in records for d in dense_operators(r.spec, r.out)]
    return {
        "workload.repeat_share": (repeats / uses if uses else 0.0, "ratio"),
        "workload.op_bytes": (operator_bytes(dense) / len(records), "B-computed/job"),
    }


def per_layer(records, probe, tracer, untraced_s, traced_s) -> dict:
    from jobs import dense_operators, operator_bytes, operator_uses
    from oracle import digits

    n = len(records)
    spans = tracer.by_name()

    def time_of(name):
        return (spans.get(name, (0.0, 0))[0] / n, "s/job")

    def count_of(name):
        return (spans.get(name, (0.0, 0))[1] / n, "count/job")

    def per_job(total, unit):
        return (total / n, unit)

    def szasz_m(r):
        return r.out.get("M", 0) if r.out else 0

    k_sum = sum(
        k for r in records for family, _, k in operator_uses(r.spec, r.out)
        if family == "bernstein" and k != math.inf
    )
    szasz_dense = [d for r in records for d in dense_operators(r.spec, r.out) if d[0] == "szasz"]
    # The probe's outputs in a known-defect class; a probe job that raised has none.
    defects = [c for r in probe for c in r.checks if c.defect is not None]
    m = {
        "core.sample_s": time_of("core.sample"),
        "core.matrix_s": time_of("core.matrix"),
        "core.matrix_calls": count_of("core.matrix"),
        "iterated.coeff_s": time_of("iterated.coeff"),
        "iterated.coeff_calls": count_of("iterated.coeff"),
        "iterated.k_sum": per_job(k_sum, "count/job"),
        "iterated.inf_s": time_of("iterated.inf"),
        "iterated.inf_calls": count_of("iterated.inf"),
        "iterated.eval_s": time_of("iterated.eval"),
        "iterated.eval_points": count_of("iterated.eval"),
        "calculus.integral_s": time_of("calculus.integral"),
        "calculus.integral_points": count_of("calculus.integral"),
        "calculus.deriv_s": time_of("calculus.deriv"),
        "calculus.deriv_points": count_of("calculus.deriv"),
        "calculus.quad_s": time_of("calculus.quad"),
        "calculus.quad_calls": count_of("calculus.quad"),
        "szasz.ctx_s": time_of("szasz.ctx"),
        "szasz.M_sum": per_job(sum(szasz_m(r) for r in records), "count/job"),
        "szasz.coeff_s": time_of("szasz.coeff"),
        "szasz.op_bytes": per_job(operator_bytes(szasz_dense), "B-computed/job"),
        "szasz.eval_s": time_of("szasz.eval"),
        "szasz.eval_points": count_of("szasz.eval"),
        "qbern.ctx_s": time_of("qbern.ctx"),
        "qbern.coeff_s": time_of("qbern.coeff"),
        "qbern.eval_s": time_of("qbern.eval"),
        "qbern.eval_points": count_of("qbern.eval"),
        "functions.sample_s": time_of("functions.sample"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = time_of(f"cli.{cmd}")
    m["cli.csv_bytes"] = per_job(sum(r.out.get("csv_bytes", 0) for r in records if r.out), "B/job")
    layers = tracer.layers()
    for layer in LAYERS:
        busy, self_time = layers.get(layer, (0.0, 0.0))
        m[f"{layer}.busy_s"] = (busy / n, "s/job")
        m[f"{layer}.self_s"] = (self_time / n, "s/job")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    m["trace.jobs"] = (n, "count")
    m.update(workload_properties(records))
    m["check.fail_ratio"] = (sum(not r.passed for r in records) / n, "ratio")
    m["defect.miss_ratio"] = (sum(not c.ok for c in defects) / len(defects), "ratio")
    m["defect.digits_min"] = (min(digits(c.rel_err) for c in defects), "digits")
    return m


def failure_class(check) -> str:
    if check.defect is None:
        return "outside known-defect classes"
    return check.defect if check.excused else check.defect + ", beyond its a-priori bound"


def summarize_failures(records) -> list[str]:
    """One line per failing input class of the timed jobs, with job counts."""
    classes: dict[str, int] = {}
    for r in records:
        if r.error is not None:
            labels = {"raised: " + r.error.split(":", 1)[0]}
        else:
            labels = {failure_class(c) for c in r.checks if not c.ok}
        for label in labels:
            classes[label] = classes.get(label, 0) + 1
    return [f"{label}: {count} jobs" for label, count in sorted(classes.items())]


def summarize_probe(probe) -> list[str]:
    """One line per input class of the probe's outputs: misses, outputs, fewest digits."""
    from oracle import digits

    classes: dict[str, list] = {}
    for r in probe:
        for c in r.checks:
            classes.setdefault(c.defect or "outside known-defect classes", []).append(c)
    lines = [
        f"{label}: {sum(not c.ok for c in checks)} of {len(checks)} outputs miss, "
        f"digits_min {min(digits(c.rel_err) for c in checks):.3g}"
        for label, checks in sorted(classes.items())
    ]
    return lines + [f"raised: {r.error}" for r in probe if r.error is not None]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("grid", "coeffs", "generalized", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one set-up probe instead of seven (smoke test)")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import jobs
    from tracing import Tracer

    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = jobs.Runner(str(scratch))
        stream = jobs.stream(args.workload, args.seed)
        warmup = next(jobs.stream(args.workload, SETUP_SEED))
        if args.probe:
            signal.alarm(PROBE_LIMIT_S)
            runner.run(jobs.NullTracer(), warmup)
            return 0
        speed = Speedometer()
        setup_times = [] if args.trace else measure_setup(args, 1 if args.quick else SETUP_REPEATS, speed)
        run_job(runner, jobs.NullTracer(), warmup)

        null, tracer = jobs.NullTracer(), Tracer() if args.trace else None
        records: list[Record] = []
        untraced_s = traced_s = calibration_s = 0.0
        start = time.perf_counter()
        deadline = start + args.seconds
        # At least two jobs, so that the percentiles are defined.
        while len(records) < 2 or time.perf_counter() < deadline:
            if not args.trace:
                calibration_s += speed.poll()
            spec = next(stream)
            t0 = time.perf_counter()
            out, error = run_job(runner, null, spec)
            t1 = time.perf_counter()
            if args.trace:
                tracer.job = spec["id"]
                untraced_s += t1 - t0
                out, error = tracer.call("bench.job", run_job, runner, tracer, spec)
                t2 = time.perf_counter()
                traced_s += t2 - t1
            records.append(Record(spec, t1 - t0, out, error))
        wall = time.perf_counter() - start - calibration_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        probe = [Record(spec, 0.0, *run_job(runner, null, spec)) for spec in jobs.defect_probe(args.workload)]

        check_start = time.perf_counter()
        from checks import Checker

        checker = Checker()
        for r in records + probe:
            if r.error is None:
                try:
                    r.checks = checker.check(r.spec, r.out)
                except Exception as exc:  # unreadable or malformed output
                    r.error = f"check {type(exc).__name__}: {exc}"
        check_s = time.perf_counter() - check_start
        if args.trace:
            tracer.write(str(SCRATCH / f"trace-{args.workload}-seed{args.seed}.csv"))
            metrics = per_layer(records, probe, tracer, untraced_s, traced_s)
        else:
            raw = timings(records, wall, statistics.median(setup_times))
            metrics = end_to_end(records, raw, speed.factor, peak_rss_mb)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not r.passed for r in records)
    # Every timed job must pass. A probe output may miss only within its
    # known-defect class (and that class's bound, where it has one).
    correct = bool(records) and all(r.passed for r in records) and all(
        r.error is None and all(c.ok or c.excused for c in r.checks) for r in probe
    )
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(records)} wall_s={wall:.3f} check_s={check_s:.3f}")
    if setup_times:
        print("# setup_s samples " + " ".join(f"{t:.3f}" for t in setup_times))
        print(f"# speed factor={speed.factor:.4f} (calibration loop median "
              f"{statistics.median(speed.samples) * 1e3:.3f} ms over {len(speed.samples)} samples, "
              f"reference {CAL_REF_S * 1e3:.3f} ms)")
        print("# wall-clock " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    print("# machine " + json.dumps(machine_record()))
    print(f"# fail_ratio={failed / len(records):.4f} ({failed}/{len(records)})")
    for line in summarize_failures(records):
        print("#   " + line)
    print(f"# known-defect probe: {len(probe)} jobs, untimed")
    for line in summarize_probe(probe):
        print("#   " + line)
    if not args.trace:
        for name, (value, unit) in workload_properties(records).items():
            print(f"# {name}={value:.6g} {unit}")
    result_metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
