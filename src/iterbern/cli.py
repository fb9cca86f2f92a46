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

from .calculus import _derivative_coefficients, quadrature
from .core import ArgumentError, ConditioningError, UniformSamples, _sample_nodes
from .core import basis_vector, bernstein_matrix
from .iterated import INFINITY, MAX_ITERATIONS, coefficients
from .functions import registry_lookup, registry_names
from .qbern import QContext, q_coefficients
from .szasz import SzaszContext, szasz_coefficients

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

# Grid points per basis build. A build holds a (basis size) x block array,
# and the Szasz basis has M + 1 rows (359 at the defaults).
GRID_BLOCK = 1024

# Caps on --n (all but szasz, which has its node cap) and on --grid.
MAX_DEGREE = 1100
MAX_GRID = 10**6


class UsageError(ArgumentError, argparse.ArgumentTypeError):
    """Bad input: main prints one 'error:' line and returns 2, as for any
    library ArgumentError (not argparse's own ArgumentError). Raised by a
    type= function, argparse prefixes the flag's name."""


class _Parser(argparse.ArgumentParser):
    """Parse errors raise UsageError; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


def bounded_int(least: int, most: float = math.inf):
    """type= for an integer flag in least..most."""
    span = f">= {least}" if most == math.inf else f"in {least}..{most}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not least <= value <= most:
            raise UsageError(f"expected an integer {span}, got {text!r}")
        return value

    return parse


def parse_k(text: str):
    """One iteration order: an integer in 1..MAX_ITERATIONS or 'inf'."""
    return INFINITY if text.strip() == "inf" else bounded_int(1, MAX_ITERATIONS)(text)


def parse_k_list(text: str) -> list:
    """Parse '1,2,3,inf' into iteration orders; 'inf' is the infinity token."""
    out = []
    for tok in text.split(","):
        k = parse_k(tok)
        if k in out:
            raise UsageError(f"k={tok.strip()} given twice")
        out.append(k)
    return out


def finite_k_list(text: str) -> list:
    """The --k list of a command that has no k = inf path."""
    k_list = parse_k_list(text)
    if INFINITY in k_list:
        raise UsageError("finite k only; this command has no k=inf")
    return k_list


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
        if n > MAX_DEGREE:
            raise UsageError(f"degree n={n} exceeds {MAX_DEGREE}")
        return UniformSamples(n, np.array([float(tok) for tok in tokens[1:]]))
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


def write_grid_report(args, meta, axis, upper, truth, prefix, basis, rows) -> int:
    """Write a grid report to args.out: one CSV row per point of the args.grid
    points on [0, upper], holding the point, then truth(point) when truth is
    given, then each order's value and its error against truth.

    meta holds the '# key=value' lines that follow operation and function.
    rows holds (k, row) pairs; on each block of points, order k's values are
    row @ basis(block), in columns <prefix>_k<k> and err_k<k>.
    """
    source = args.fn or getattr(args, "samples", None)
    meta = {"operation": args.command, "function": source, **meta}
    has_truth = truth is not None
    header = [axis] + (["truth"] if has_truth else [])
    for k, _ in rows:
        header += [f"{prefix}_k{k}"] + ([f"err_k{k}"] if has_truth else [])
    grid = np.linspace(0.0, upper, args.grid)
    values = np.empty((len(rows), len(grid)))
    for i in range(0, len(grid), GRID_BLOCK):
        block = basis(grid[i : i + GRID_BLOCK])
        values[:, i : i + GRID_BLOCK] = [row @ block for _, row in rows]
        del block  # so that at most one block's basis is alive
    table = [grid]
    if has_truth:
        exact = np.array([float(truth(x)) for x in grid])
        table.append(exact)
    for v in values:
        table += [v, v - exact] if has_truth else [v]
    write_csv(args.out, meta, header, np.column_stack(table).tolist())
    return 0


def resolve_function(args):
    """Return (fn_or_None, samples) from the --fn or --samples flag; a
    registry function is sampled at degree --n."""
    if args.fn:
        fn = registry_lookup(args.fn)
        return fn, UniformSamples.from_function(fn, args.n)
    return None, load_samples(args.samples)


def cmd_approx(args) -> int:
    fn, samples = resolve_function(args)
    n = samples.n
    matrix = bernstein_matrix(n)
    rows = [(k, coefficients(samples, k, force=args.force, matrix=matrix).coeffs) for k in args.k]
    meta = {"n": n, "k": ",".join(map(str, args.k))}
    basis = partial(basis_vector, n)
    return write_grid_report(args, meta, "t", 1.0, fn, "approx", basis, rows)


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
            print(f"{name:<10}{k!s:>6}{value:>14.7f}{ref:>14.7f}{dev:>12.2e}")
            rows.append([name, str(k), value, float(ref), dev, float(exact)])
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
    n = samples.n
    if args.r > n:
        raise UsageError(f"r={args.r} exceeds degree n={n}")
    truth = fn.derivative if (fn is not None and args.r == 1) else None
    matrix = bernstein_matrix(n)
    rows = [(k, _derivative_coefficients(coefficients(samples, k, matrix=matrix).coeffs, args.r))
            for k in args.k]
    meta = {"n": n, "k": ",".join(map(str, args.k)), "r": args.r}
    return write_grid_report(args, meta, "t", 1.0, truth, f"d{args.r}",
                             partial(basis_vector, n - args.r), rows)


def cmd_integrate(args) -> int:
    fn = registry_lookup(args.fn)
    value = quadrature(fn, args.a, args.b, args.n, args.k, force=args.force)
    print(f"{value:.10g}")
    return 0


def cmd_szasz(args) -> int:
    fn = registry_lookup(args.fn)
    ctx = SzaszContext(args.n, args.xmax, args.tail_tol)
    rows = [(k, szasz_coefficients(fn, ctx, k)) for k in args.k]
    meta = {"n": args.n, "k": ",".join(map(str, args.k)), "x_max": args.xmax,
            "tail_tol": args.tail_tol, "M": ctx.M}
    return write_grid_report(args, meta, "x", args.xmax, fn, "approx", ctx.basis, rows)


def cmd_qbernstein(args) -> int:
    fn = registry_lookup(args.fn)
    ctx = QContext(args.q, args.n)
    node_values = _sample_nodes(fn, ctx.nodes)
    rows = [(k, q_coefficients(ctx, node_values, k)) for k in args.k]
    meta = {"n": args.n, "q": args.q, "k": ",".join(map(str, args.k)),
            "nodes": ",".join(repr(float(v)) for v in ctx.nodes)}
    return write_grid_report(args, meta, "t", 1.0, fn, "approx", ctx.basis, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="iterbern",
        description="Iterated Bernstein polynomial approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    degree = bounded_int(1, MAX_DEGREE)
    fn_flag = {"choices": registry_names(), "help": "registry function"}

    def add_grid_flags(p, n_default, samples_ok=False, k_type=finite_k_list, n_type=degree):
        source = p.add_mutually_exclusive_group(required=True) if samples_ok else p
        source.add_argument("--fn", required=not samples_ok, **fn_flag)
        if samples_ok:
            source.add_argument("--samples", help="samples file (line 1: n, then f(i/n))")
        p.add_argument("--n", type=n_type, default=n_default)
        p.add_argument("--k", type=k_type, default="1",
                       help="comma list of orders (approx also takes inf)")
        p.add_argument("--grid", type=bounded_int(1, MAX_GRID), default=1001)
        p.add_argument("--out", required=True)

    p = sub.add_parser("approx", help="evaluate iterated approximants on a grid")
    add_grid_flags(p, 30, samples_ok=True, k_type=parse_k_list)
    p.add_argument("--force", action="store_true", help="override the k=inf degree cap")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("table", help="reproduce a published integral table")
    p.add_argument("table_id", type=int, choices=(1, 2))
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("derivative", help="derivatives of iterated approximants")
    add_grid_flags(p, 30, samples_ok=True)
    p.add_argument("--r", type=bounded_int(0), default=1)
    p.set_defaults(func=cmd_derivative)

    p = sub.add_parser("integrate", help="integral-free quadrature of a named function")
    p.add_argument("--fn", required=True, **fn_flag)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=degree, default=10)
    p.add_argument("--k", type=parse_k, default="1", help="single order, 'inf' allowed")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("szasz", help="iterated Szasz-Mirakyan approximants on a grid")
    add_grid_flags(p, 10, n_type=bounded_int(1))
    p.add_argument("--xmax", type=float, default=8.0)
    p.add_argument("--tail-tol", type=float, default=1e-12, dest="tail_tol")
    p.set_defaults(func=cmd_szasz)

    p = sub.add_parser("qbernstein", help="iterated q-Bernstein polynomials on a grid")
    add_grid_flags(p, 30)
    p.add_argument("--q", type=float, default=1.1)
    p.set_defaults(func=cmd_qbernstein)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ArgumentError as exc:
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
