"""Seeded job streams for each workload, and the code that runs one job.

Every call into iterbern goes through ``tracer.call(span_name, fn, ...)``;
the untraced run passes a tracer whose ``call`` is a plain call. Span names
are ``<module>.<operation>`` so the module prefix names the layer.

Jobs come in blocks. Each block holds every combination of the workload's
strata once (degree ranges, k classes, q / x_max bins, CLI commands) with
the free parameters drawn from the seed, and is shuffled. A run covers
several blocks, so two seeds give the same mix of job classes and differ
only in the drawn parameters.

The streams stay inside the ranges where the library is accurate to the
benchmark's tolerance, so that no timed job fails. The known-defect classes
(see checks.py) are run instead by a fixed probe, DEFECT_PROBES, after the
timed loop.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random

import numpy as np

from iterbern import (
    INFINITY,
    QContext,
    SzaszContext,
    UniformSamples,
    bernstein_matrix,
    coefficients,
    derivative_eval,
    eval_iterated,
    integral_eval,
    q_coefficients,
    q_eval,
    quadrature,
    registry_lookup,
    registry_names,
    szasz_coefficients,
    szasz_eval,
)

# Registry functions whose declared domain is [0, 1].
UNIT_FUNCTIONS = tuple(n for n in registry_names() if registry_lookup(n).domain == (0.0, 1.0))
ALL_FUNCTIONS = tuple(registry_names())
# Bounded on [0, inf), so the Szasz node values stay bounded past x_max.
SZASZ_FUNCTIONS = ("chi4", "gauss", "one")

DENSE_GRID = np.linspace(0.0, 1.0, 64)
COARSE_GRID = np.linspace(0.0, 1.0, 4)
GENERALIZED_POINTS = 64

# The edges of the known-defect classes in checks.py, kept here so that the
# streams can stay inside them without importing the oracle (which would add
# mpmath to the set-up time); test_checks.py ties them to checks.py.
INF_MAX_N = 20  # k = inf: the LU error bound meets the tolerance up to here
# derivative_eval: the finite k of the grid k list below 50-100. The class
# edge in checks.py is 34, but misses start near k = 28 at r = 2 (the
# amplification C(k, k//2) is not the only factor), so the streams stay far
# below it.
DERIV_MAX_K = 10
Q_MAX = 1.0  # q-Bernstein: the basis is nonnegative up to here

# The seven k classes of a grid job, and the lines of the Fano plane over
# them: every job takes one line, so each class appears in three jobs out of
# seven and every pair of classes meets exactly once per block.
GRID_K_CLASSES = (1, 2, 3, 5, 10, "inf", "high")
FANO_LINES = ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2))


class NullTracer:
    """Runs calls without recording anything."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _deal(rng: random.Random, items, count: int) -> list:
    """count items, cycling through a shuffled copy of items."""
    out = []
    while len(out) < count:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


def _subinterval(rng: random.Random, domain) -> tuple[float, float]:
    lo, hi = domain
    width = hi - lo
    a = lo + width * rng.uniform(0.0, 0.5)
    return a, a + width * rng.uniform(0.25, 0.5)


def _log_uniform_k(rng: random.Random, decade: int) -> int:
    return min(10**4, max(1, round(10 ** rng.uniform(decade, decade + 1))))


# ------------------------------------------------------------------ blocks


def _grid_block(rng):
    block = []
    strata = ((8, 15), (16, 23), (24, 31), (32, 40))
    fns = _deal(rng, UNIT_FUNCTIONS, len(strata) * len(FANO_LINES))
    for s, (lo, hi) in enumerate(strata):
        for i, line in enumerate(FANO_LINES):
            n = rng.randint(lo, hi)
            ks = []
            for cls in (GRID_K_CLASSES[i] for i in line):
                if cls == "high":
                    ks.append(rng.randint(50, 100))
                elif cls == "inf":
                    if n <= INF_MAX_N:
                        ks.append(INFINITY)
                else:
                    ks.append(cls)
            ks.sort()
            block.append({"kind": "grid", "fn": fns[len(block)], "n": n, "ks": ks,
                          "deriv_ks": [k for k in ks if k <= DERIV_MAX_K], "r": 1 + (s + i) % 2})
    return block


def _coeffs_block(rng):
    block = []
    strata = ((5, 12), (13, 21), (22, 30))
    fns = _deal(rng, ALL_FUNCTIONS, 2 * len(strata) * 5)
    for kind in ("quad", "coef"):
        for lo, hi in strata:
            for decade in range(5):
                fn = fns[len(block)]
                a, b = _subinterval(rng, registry_lookup(fn).domain)
                if decade == 4:  # one k = inf job per stratum, at a degree where it is accurate
                    k, n = INFINITY, rng.randint(5, INF_MAX_N)
                else:
                    k, n = _log_uniform_k(rng, decade), rng.randint(lo, hi)
                block.append({"kind": kind, "fn": fn, "a": a, "b": b, "n": n, "k": k})
    return block


def _generalized_block(rng):
    block = []
    sz_fns = _deal(rng, SZASZ_FUNCTIONS, 15)
    q_fns = _deal(rng, UNIT_FUNCTIONS, 15)
    # Latin square over (degree stratum, parameter bin): k = (bin + 2 s) % 5 + 1.
    for s, (lo, hi) in enumerate(((5, 20), (21, 40), (41, 60))):
        for b in range(5):
            block.append({
                "kind": "szasz", "fn": sz_fns[5 * s + b], "n": rng.randint(lo, hi),
                "x_max": 2.0 + 1.2 * (b + rng.random()), "k": (b + 2 * s) % 5 + 1,
            })
    for s, (lo, hi) in enumerate(((8, 15), (16, 22), (23, 30))):
        for b in range(5):
            block.append({
                "kind": "qbern", "fn": q_fns[5 * s + b], "n": rng.randint(lo, hi),
                "q": 0.5 + 0.1 * (b + rng.random()), "k": (b + 2 * s) % 5 + 1,
            })
    return block


def _cli_block(rng):
    def pick_ks(choices, count):
        return sorted(rng.sample(choices, count), key=lambda k: math.inf if k == "inf" else k)

    block = []
    for n in (rng.randint(8, INF_MAX_N), rng.randint(INF_MAX_N + 1, 30)):
        choices = [1, 2, 3, 5, 10] + (["inf"] if n <= INF_MAX_N else [])
        block.append({
            "kind": "cli", "cmd": "approx", "fn": rng.choice(UNIT_FUNCTIONS), "n": n,
            "ks": pick_ks(choices, rng.randint(2, 3)), "grid": rng.randint(51, 201),
        })
    for count in (1, 2):
        ks = pick_ks([1, 2, 3, 5, DERIV_MAX_K], count)
        block.append({
            "kind": "cli", "cmd": "derivative", "fn": rng.choice(UNIT_FUNCTIONS), "n": rng.randint(8, 30),
            "ks": ks, "r": rng.randint(1, 2), "grid": rng.randint(3, 9),
        })
    for decade in (rng.randrange(2), rng.randrange(2, 5)):
        fn = rng.choice(ALL_FUNCTIONS)
        a, b = _subinterval(rng, registry_lookup(fn).domain)
        k = "inf" if decade == 4 else _log_uniform_k(rng, decade)
        block.append({"kind": "cli", "cmd": "integrate", "fn": fn, "a": a, "b": b,
                      "n": rng.randint(5, INF_MAX_N if k == "inf" else 30), "ks": [k]})
    for table in (1, 2):
        block.append({"kind": "cli", "cmd": "table", "table": table})
    for _ in range(2):
        block.append({
            "kind": "cli", "cmd": "szasz", "fn": rng.choice(SZASZ_FUNCTIONS), "n": rng.randint(5, 30),
            "x_max": round(rng.uniform(2.0, 8.0), 3), "ks": pick_ks([1, 2, 3, 4, 5], 2),
            "grid": rng.randint(21, 101),
        })
    for lo, hi in ((0.5, 0.75), (0.75, Q_MAX)):
        block.append({
            "kind": "cli", "cmd": "qbernstein", "fn": rng.choice(UNIT_FUNCTIONS), "n": rng.randint(8, 30),
            "q": round(rng.uniform(lo, hi), 4), "ks": pick_ks([1, 2, 3, 4, 5], 2),
            "grid": rng.randint(21, 101),
        })
    return block


BLOCKS = {"grid": _grid_block, "coeffs": _coeffs_block, "generalized": _generalized_block, "cli": _cli_block}


def stream(workload: str, seed: int):
    """Endless, reproducible job stream; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    job_id = 0
    while True:
        block = BLOCKS[workload](rng)
        rng.shuffle(block)
        for spec in block:
            spec["id"] = job_id
            job_id += 1
            yield spec


# The known-defect probe: fixed jobs, the same for every seed, whose inputs
# lie in the known-defect classes, so that those defects stay measured while
# the timed streams avoid them. Each run runs its workload's probe once,
# untimed, after the timed loop. ROADMAP item 3's derivative case (n = 20,
# k = 60 and 100) is in the grid and cli probes.
DEFECT_PROBES = {
    "grid": [
        {"kind": "grid", "fn": "sinpi", "n": 20, "ks": [60, 100], "deriv_ks": [34, 60, 100], "r": 1},
        {"kind": "grid", "fn": "gauss", "n": 40, "ks": [50], "deriv_ks": [50], "r": 2},
        {"kind": "grid", "fn": "expx", "n": 25, "ks": [INFINITY], "deriv_ks": [], "r": 1},
        {"kind": "grid", "fn": "abshalf", "n": 30, "ks": [INFINITY], "deriv_ks": [], "r": 1},
    ],
    "coeffs": [
        {"kind": kind, "fn": fn, "a": 0.0, "b": 1.0, "n": n, "k": INFINITY}
        for kind in ("quad", "coef") for fn, n in (("expx", 21), ("sinpi", 25), ("abshalf", 30))
    ],
    "generalized": [
        {"kind": "qbern", "fn": fn, "n": n, "q": q, "k": k}
        for fn, n, q, k in (("sinpi", 15, 1.1, 1), ("expx", 22, 1.2, 3), ("abshalf", 30, 1.3, 5))
    ],
    "cli": [
        {"kind": "cli", "cmd": "derivative", "fn": "sinpi", "n": 20, "ks": [60, 100], "r": 1, "grid": 5},
        {"kind": "cli", "cmd": "approx", "fn": "abshalf", "n": 30, "ks": ["inf"], "grid": 101},
        {"kind": "cli", "cmd": "integrate", "fn": "expx", "a": 0.0, "b": 1.0, "n": 30, "ks": ["inf"]},
        {"kind": "cli", "cmd": "qbernstein", "fn": "sin2pi", "n": 30, "q": 1.3, "ks": [1, 5], "grid": 51},
    ],
}


def defect_probe(workload: str) -> list[dict]:
    """The workload's known-defect probe jobs, with ids apart from the stream's."""
    return [dict(spec, id=f"probe{i}") for i, spec in enumerate(DEFECT_PROBES[workload])]


# ------------------------------------------------------------------ running


class Subinterval:
    """t -> g(a + (b - a) t): a registry function pulled back to [0, 1]."""

    def __init__(self, fn, a: float, b: float):
        self.fn, self.a, self.b = fn, a, b

    def __call__(self, t: float) -> float:
        return self.fn(self.a + (self.b - self.a) * t)


def _sample_nodes(fn, nodes) -> np.ndarray:
    return np.array([float(fn(x)) for x in nodes])


def cli_argv(spec: dict, out_path: str) -> list[str]:
    cmd = spec["cmd"]
    if cmd == "table":
        return ["table", str(spec["table"]), "--out", out_path]
    argv = [cmd, "--fn", spec["fn"], "--n", str(spec["n"]), "--k", ",".join(map(str, spec["ks"]))]
    if cmd == "integrate":
        return argv + ["--a", repr(spec["a"]), "--b", repr(spec["b"])]
    argv += ["--grid", str(spec["grid"]), "--out", out_path]
    if cmd == "derivative":
        argv += ["--r", str(spec["r"])]
    elif cmd == "szasz":
        argv += ["--xmax", repr(spec["x_max"])]
    elif cmd == "qbernstein":
        argv += ["--q", repr(spec["q"])]
    return argv


class Runner:
    """Runs one job; CLI jobs write their CSV under scratch_dir."""

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir

    def csv_path(self, spec: dict) -> str:
        return os.path.join(self.scratch_dir, f"job{spec['id']}.csv")

    def run(self, tr, spec: dict) -> dict:
        return getattr(self, "_run_" + spec["kind"])(tr, spec)

    def _run_grid(self, tr, spec):
        fn = registry_lookup(spec["fn"])
        n = spec["n"]
        samples = tr.call("core.sample", UniformSamples.from_function, fn, n)
        matrix = tr.call("core.matrix", bernstein_matrix, n)
        out = {}
        for k in spec["ks"]:
            span = "iterated.inf" if k == INFINITY else "iterated.coeff"
            c = tr.call(span, coefficients, samples, k, matrix=matrix)
            out[("eval", k)] = [tr.call("iterated.eval", eval_iterated, c, float(t)) for t in DENSE_GRID]
            out[("integral", k)] = [
                tr.call("calculus.integral", integral_eval, c, float(t)) for t in DENSE_GRID
            ]
        r = spec["r"]
        for k in spec["deriv_ks"]:
            out[("deriv", k, r)] = [
                tr.call("calculus.deriv", derivative_eval, samples, k, r, float(t)) for t in COARSE_GRID
            ]
        return out

    def _run_quad(self, tr, spec):
        fn = registry_lookup(spec["fn"])
        return {"value": tr.call("calculus.quad", quadrature, fn, spec["a"], spec["b"], spec["n"], spec["k"])}

    def _run_coef(self, tr, spec):
        g = Subinterval(registry_lookup(spec["fn"]), spec["a"], spec["b"])
        samples = tr.call("core.sample", UniformSamples.from_function, g, spec["n"])
        matrix = tr.call("core.matrix", bernstein_matrix, spec["n"])
        span = "iterated.inf" if spec["k"] == INFINITY else "iterated.coeff"
        return {"coeffs": tr.call(span, coefficients, samples, spec["k"], matrix=matrix).coeffs}

    def _run_szasz(self, tr, spec):
        fn = registry_lookup(spec["fn"])
        ctx = tr.call("szasz.ctx", SzaszContext, spec["n"], spec["x_max"])
        c = tr.call("szasz.coeff", szasz_coefficients, fn, ctx, spec["k"])
        grid = np.linspace(0.0, spec["x_max"], GENERALIZED_POINTS)
        return {"M": ctx.M, "values": [tr.call("szasz.eval", szasz_eval, ctx, c, float(x)) for x in grid]}

    def _run_qbern(self, tr, spec):
        fn = registry_lookup(spec["fn"])
        ctx = tr.call("qbern.ctx", QContext, spec["q"], spec["n"])
        node_values = tr.call("functions.sample", _sample_nodes, fn, ctx.nodes)
        c = tr.call("qbern.coeff", q_coefficients, ctx, node_values, spec["k"])
        grid = np.linspace(0.0, 1.0, GENERALIZED_POINTS)
        return {"values": [tr.call("qbern.eval", q_eval, ctx, c, float(t)) for t in grid]}

    def _run_cli(self, tr, spec):
        from iterbern import cli

        path = self.csv_path(spec)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = tr.call("cli." + spec["cmd"], cli.main, cli_argv(spec, path))
        if code != 0:
            raise RuntimeError(f"iterbern {spec['cmd']} exited {code}: {buf.getvalue().strip()[-200:]}")
        return {"stdout": buf.getvalue(), "csv": path if spec["cmd"] != "integrate" else None}


# ------------------------------------------------------ workload properties

# `iterbern table 1|2`: the degree n of each table, and the k list and the
# number of integrands (rows per k) it runs quadrature over.
TABLE_N = {1: 5, 2: 10}
TABLE_KS = (1, 5, INFINITY)
TABLE_INTEGRANDS = 3


def parse_k(value):
    """A k as the CLI writes it ('inf' or a number) as the API takes it."""
    return INFINITY if value in ("inf", INFINITY) else int(value)


def operator_uses(spec: dict, out: dict | None) -> list[tuple]:
    """One (family, operator parameters, k) per coefficient computation in a job.

    The parameters fix the dense node operator: n for Bernstein, (n, M) for
    Szasz, (q, n) for q-Bernstein. A matrix or weight cache keyed this way
    would serve a repeated use. Szasz jobs read M from out; it is None for a
    job that failed before reporting it.
    """
    kind = spec.get("cmd", spec["kind"])
    if kind == "table":
        n = TABLE_N[spec["table"]]
        return [("bernstein", n, k) for _ in range(TABLE_INTEGRANDS) for k in TABLE_KS]
    ks = [parse_k(k) for k in spec.get("ks", [spec.get("k")])]
    if kind == "szasz":
        m = out.get("M") if out else None
        return [("szasz", (spec["n"], m), k) for k in ks]
    if kind in ("qbern", "qbernstein"):
        return [("q", (spec["q"], spec["n"]), k) for k in ks]
    return [("bernstein", spec["n"], k) for k in ks]


def dense_operators(spec: dict, out: dict | None) -> list[tuple[str, int]]:
    """(family, N) of the (N + 1) x (N + 1) float64 operator behind each use.

    The Szasz and q paths skip the operator at k = 1, and a Szasz use without
    M has none. Grid jobs and `approx` share one Bernstein matrix across their
    k list; it is still counted once per use.
    """
    dense = []
    for family, params, k in operator_uses(spec, out):
        if family == "bernstein":
            dense.append((family, params))
        elif k > 1 and params[1] is not None:  # M for Szasz, n for q
            dense.append((family, params[1]))
    return dense


def operator_bytes(dense: list[tuple[str, int]]) -> int:
    """Computed bytes of the given dense operators: 8 (N + 1)^2 each."""
    return sum(8 * (size + 1) ** 2 for _, size in dense)
