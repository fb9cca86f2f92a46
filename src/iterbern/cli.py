"""Command-line front end.

Subcommands: approx, table, derivative, integrate, szasz, qbernstein.
Grid reports are written as CSV (header row, '#' comment lines for run
metadata); tables are additionally pretty-printed to stdout.

Exit codes: 0 success, 2 usage error, 3 numeric/conditioning error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from functools import partial

import numpy as np

from .calculus import _derivative, quadrature
from .core import ConditioningError, UniformSamples, _sample_nodes, bernstein_matrix
from .iterated import INFINITY, MAX_ITERATIONS, coefficients, eval_iterated
from .functions import registry_lookup, registry_names
from .qbern import QContext, q_coefficients, q_eval
from .szasz import SzaszContext, szasz_coefficients, szasz_eval

EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Paper-reported quadrature values, used by the self-verifying table runs.
TABLE_GOLDEN = {
    1: {
        "n": 5,
        "rows": [
            ("sinpi", (1.611471, 2.005416, 1.999203), 2.0),
            ("expx", (1.746528, 1.718369, 1.718282), math.e - 1.0),
            ("gauss", (0.3371903, 0.3413510, 0.3413443), 0.3413447),
        ],
    },
    2: {
        "n": 10,
        "rows": [
            ("sinpi", (1.803203, 2.000146, 2.000000), 2.0),
            ("expx", (1.732389, 1.718285, 1.718282), math.e - 1.0),
            ("gauss", (0.3392624, 0.341345, 0.3413447), 0.3413447),
        ],
    },
}
TABLE_TOLERANCE = 5e-7
TABLE_K = (1, 5, INFINITY)

# Grid points per evaluation call. A call holds a (basis size) x block array,
# and the Szasz basis has M + 1 rows (359 at the defaults).
GRID_BLOCK = 1024


class UsageError(Exception):
    pass


def parse_k_list(text: str) -> list:
    """Parse '1,2,3,inf' into iteration orders; 'inf' is the infinity token."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "inf":
            out.append(INFINITY)
        else:
            try:
                k = int(tok)
            except ValueError:
                raise UsageError(f"bad k value {tok!r} (expected integer or 'inf')")
            if not 1 <= k <= MAX_ITERATIONS:
                raise UsageError(f"k must be in 1..{MAX_ITERATIONS}, got {k}")
            out.append(k)
    if not out:
        raise UsageError("empty k list")
    return out


def k_label(k) -> str:
    return "inf" if k == INFINITY else str(k)


def load_samples(path: str) -> UniformSamples:
    """Samples file: line 1 = n, then n+1 values f(i/n); '#' comments allowed."""
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line)
    if not tokens:
        raise UsageError(f"samples file {path} is empty")
    try:
        n = int(tokens[0])
        values = [float(tok) for tok in tokens[1:]]
    except ValueError as exc:
        raise UsageError(f"samples file {path}: {exc}")
    if len(values) != n + 1:
        raise UsageError(
            f"samples file {path}: expected {n + 1} values for n={n}, got {len(values)}"
        )
    try:
        return UniformSamples(n, np.array(values))
    except ValueError as exc:
        raise UsageError(f"samples file {path}: {exc}")


def write_csv(path: str, meta: dict, header: list, rows: list):
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_grid_report(args, meta: dict, axis: str, grid, truth, prefix: str, columns) -> int:
    """Write a grid report to args.out: one CSV row per grid point holding
    the point, then truth(point) when truth is given, then each column's
    value and its error against truth.

    meta holds the '# key=value' lines that follow operation and function.
    columns holds (k, evaluate) pairs, evaluate taking an array of points;
    the value column of order k is <prefix>_k<k>, its error column err_k<k>.
    """
    source = args.fn or getattr(args, "samples", None)
    meta = {"operation": args.command, "function": source, **meta}
    has_truth = truth is not None
    header = [axis] + (["truth"] if has_truth else [])
    for k, _ in columns:
        header += [f"{prefix}_k{k_label(k)}"] + ([f"err_k{k_label(k)}"] if has_truth else [])
    table = [grid]
    if has_truth:
        exact = np.array([float(truth(x)) for x in grid])
        table.append(exact)
    for _, evaluate in columns:
        v = np.concatenate(
            [evaluate(grid[i : i + GRID_BLOCK]) for i in range(0, len(grid), GRID_BLOCK)]
        )
        table += [v, v - exact] if has_truth else [v]
    write_csv(args.out, meta, header, np.column_stack(table).tolist())
    return 0


def lookup_function(name: str):
    """Registry function by name; an unknown name is a usage error."""
    try:
        return registry_lookup(name)
    except KeyError as exc:
        raise UsageError(str(exc))


def finite_k_list(args) -> list:
    """The --k list of a command that has no k = inf path."""
    k_list = parse_k_list(args.k)
    if INFINITY in k_list:
        raise UsageError(f"{args.command} supports finite k only")
    return k_list


def resolve_function(args):
    """Return (fn_or_None, samples) from --fn/--samples flags; a registry
    function is sampled at degree --n."""
    if args.fn and args.samples:
        raise UsageError("--fn and --samples are mutually exclusive")
    if args.fn:
        fn = lookup_function(args.fn)
        return fn, UniformSamples.from_function(fn, args.n)
    if args.samples:
        return None, load_samples(args.samples)
    raise UsageError("one of --fn or --samples is required")


def cmd_approx(args) -> int:
    fn, samples = resolve_function(args)
    k_list = parse_k_list(args.k)
    n = samples.n
    matrix = bernstein_matrix(n)
    columns = [
        (k, partial(eval_iterated, coefficients(samples, k, force=args.force, matrix=matrix)))
        for k in k_list
    ]
    meta = {"n": n, "k": ",".join(map(k_label, k_list))}
    grid = np.linspace(0.0, 1.0, args.grid)
    return write_grid_report(args, meta, "t", grid, fn, "approx", columns)


def cmd_table(args) -> int:
    spec = TABLE_GOLDEN[args.table_id]
    n = spec["n"]
    print(f"Numerical integrals on [0, 1], n={n}")
    print(f"{'integrand':<10}{'k':>6}{'computed':>14}{'printed':>14}{'|dev|':>12}")
    rows = []
    worst = 0.0
    for name, printed, exact in spec["rows"]:
        fn = registry_lookup(name)
        for k, ref in zip(TABLE_K, printed):
            value = quadrature(fn, 0.0, 1.0, n, k)
            dev = abs(value - ref)
            worst = max(worst, dev)
            print(f"{name:<10}{k_label(k):>6}{value:>14.7f}{ref:>14.7f}{dev:>12.2e}")
            rows.append([name, k_label(k), value, float(ref), dev, float(exact)])
    out = args.out or f"table{args.table_id}.csv"
    write_csv(
        out,
        {"operation": "table", "table": args.table_id, "n": n},
        ["integrand", "k", "computed", "printed", "deviation", "exact"],
        rows,
    )
    if worst > TABLE_TOLERANCE:
        print(f"FAIL: max deviation {worst:.3e} exceeds {TABLE_TOLERANCE:.0e}")
        return EXIT_NUMERIC
    print(f"OK: all entries within {TABLE_TOLERANCE:.0e}")
    return 0


def cmd_derivative(args) -> int:
    fn, samples = resolve_function(args)
    k_list = finite_k_list(args)
    n = samples.n
    if args.r > n:
        raise UsageError(f"r={args.r} exceeds degree n={n}")
    truth = fn.derivative if (fn is not None and args.r == 1) else None
    matrix = bernstein_matrix(n)
    columns = [
        (k, partial(_derivative, coefficients(samples, k, matrix=matrix), args.r))
        for k in k_list
    ]
    meta = {"n": n, "k": ",".join(map(k_label, k_list)), "r": args.r}
    grid = np.linspace(0.0, 1.0, args.grid)
    return write_grid_report(args, meta, "t", grid, truth, f"d{args.r}", columns)


def cmd_integrate(args) -> int:
    fn = lookup_function(args.fn)
    k_list = parse_k_list(args.k)
    if len(k_list) != 1:
        raise UsageError("integrate takes a single k")
    if not args.a < args.b:
        raise UsageError(f"need a < b, got a={args.a}, b={args.b}")
    value = quadrature(fn, args.a, args.b, args.n, k_list[0], force=args.force)
    print(f"{value:.10g}")
    return 0


def cmd_szasz(args) -> int:
    fn = lookup_function(args.fn)
    k_list = finite_k_list(args)
    try:
        ctx = SzaszContext(args.n, args.xmax, args.tail_tol)
    except ValueError as exc:
        raise UsageError(str(exc))
    columns = [(k, partial(szasz_eval, ctx, szasz_coefficients(fn, ctx, k))) for k in k_list]
    meta = {
        "n": args.n,
        "k": ",".join(map(k_label, k_list)),
        "x_max": args.xmax,
        "tail_tol": args.tail_tol,
        "M": ctx.M,
    }
    grid = np.linspace(0.0, args.xmax, args.grid)
    return write_grid_report(args, meta, "x", grid, fn, "approx", columns)


def cmd_qbernstein(args) -> int:
    fn = lookup_function(args.fn)
    k_list = finite_k_list(args)
    try:
        ctx = QContext(args.q, args.n)
    except ValueError as exc:
        raise UsageError(str(exc))
    node_values = _sample_nodes(fn, ctx.nodes)
    columns = [(k, partial(q_eval, ctx, q_coefficients(ctx, node_values, k))) for k in k_list]
    meta = {
        "n": args.n,
        "q": args.q,
        "k": ",".join(map(k_label, k_list)),
        "nodes": ",".join(repr(float(v)) for v in ctx.nodes),
    }
    grid = np.linspace(0.0, 1.0, args.grid)
    return write_grid_report(args, meta, "t", grid, fn, "approx", columns)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterbern",
        description="Iterated Bernstein polynomial approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p, n_default, samples_ok=False):
        p.add_argument("--fn", required=not samples_ok,
                       help=f"function name ({', '.join(registry_names())})")
        if samples_ok:
            p.add_argument("--samples", help="samples file (line 1: n, then f(i/n))")
        p.add_argument("--n", type=int, default=n_default)
        p.add_argument("--k", default="1", help="comma list of orders (approx also takes inf)")
        p.add_argument("--grid", type=int, default=1001)
        p.add_argument("--out", required=True)

    p = sub.add_parser("approx", help="evaluate iterated approximants on a grid")
    add_grid_flags(p, 30, samples_ok=True)
    p.add_argument("--force", action="store_true", help="override the k=inf degree cap")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("table", help="reproduce a published integral table")
    p.add_argument("table_id", type=int, choices=(1, 2))
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("derivative", help="derivatives of iterated approximants")
    add_grid_flags(p, 30, samples_ok=True)
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(func=cmd_derivative)

    p = sub.add_parser("integrate", help="integral-free quadrature of a named function")
    p.add_argument("--fn", required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--k", default="1", help="single order, 'inf' allowed")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("szasz", help="iterated Szasz-Mirakyan approximants on a grid")
    add_grid_flags(p, 10)
    p.add_argument("--xmax", type=float, default=8.0)
    p.add_argument("--tail-tol", type=float, default=1e-12, dest="tail_tol")
    p.set_defaults(func=cmd_szasz)

    p = sub.add_parser("qbernstein", help="iterated q-Bernstein polynomials on a grid")
    add_grid_flags(p, 30)
    p.add_argument("--q", type=float, default=1.1)
    p.set_defaults(func=cmd_qbernstein)

    return parser


def check_flags(args):
    """Reject integer flag values below their minimum before any work starts."""
    for flag, least in (("n", 1), ("grid", 1), ("r", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise UsageError(f"--{flag} must be >= {least}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_flags(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConditioningError as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
