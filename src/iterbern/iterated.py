"""Iterated Bernstein coefficients: finite order k and the k -> infinity limit.

The coefficient row vector of order k satisfies the recurrence
F(k+1) = F(k)(I - B) + F(1) with F(1) the raw node samples, so that
F(k) = F(1) (I + (I - B) + ... + (I - B)^(k-1)) (Kelisky & Rivlin). The
recurrence is the same for every operator family; _iterate runs exactly
k - 1 steps of it on any node matrix, and the Szasz-Mirakyan and q-Bernstein
modules call it with theirs. The limit solves X B = F(1), which makes the
limiting approximant interpolate the samples at the nodes; it is the only
path with a degree cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BernsteinMatrix,
    ConditioningError,
    UniformSamples,
    basis_vector,
    bernstein_matrix,
)

INFINITY = math.inf

# Order k costs k - 1 vector-matrix products; this bounds the run time.
MAX_ITERATIONS = 10**6

# Degree above which the node-evaluation matrix is too ill-conditioned for
# the k -> infinity linear solve in double precision.
LIMIT_DEGREE_CAP = 30


@dataclass(frozen=True)
class IterCoefficients:
    """Row vector of iterated Bernstein coefficients in the basis of degree n.

    k is a positive integer or INFINITY. For the infinity mode, residual
    holds the max-norm of X B - F(1) from the linear solve.
    """

    n: int
    k: float
    coeffs: np.ndarray = field(repr=False)
    residual: float | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} coefficients, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)


def _iterate(f1: np.ndarray, build_matrix, k: int) -> np.ndarray:
    """Order-k coefficients F(k) from node values f1 and a family's node matrix.

    Runs exactly k - 1 steps of the recurrence, so order k means k.
    build_matrix() is called only when k > 1, so order 1 costs no operator
    build.
    """
    if k < 1:
        raise ValueError(f"iteration order must be >= 1, got k={k}")
    if k > MAX_ITERATIONS:
        raise ValueError(f"k={k} exceeds the iteration cap {MAX_ITERATIONS}")
    f = f1.copy()
    if k == 1:
        return f
    matrix = build_matrix()
    for _ in range(k - 1):
        f = f - f @ matrix + f1
    return f


def iterate_coefficients(
    samples: UniformSamples, k: int, matrix: BernsteinMatrix | None = None
) -> IterCoefficients:
    """Coefficients of order k via the shared recurrence."""
    def build():
        return (matrix if matrix is not None else bernstein_matrix(samples.n)).entries

    return IterCoefficients(samples.n, k, _iterate(samples.values, build, k))


def limit_coefficients(
    samples: UniformSamples, force: bool = False, matrix: BernsteinMatrix | None = None
) -> IterCoefficients:
    """The k -> infinity coefficients, solving X B = F(1) by pivoted LU.

    The endpoint columns of B are unit vectors, so X[0] and X[n] are fixed
    to the endpoint samples and only the interior system is solved; this
    keeps endpoint interpolation exact regardless of conditioning.
    """
    n = samples.n
    if n > LIMIT_DEGREE_CAP and not force:
        raise ConditioningError(
            f"n={n} exceeds the conditioning cap {LIMIT_DEGREE_CAP} for the "
            "k=infinity solve; pass force=True to override"
        )
    if matrix is None:
        matrix = bernstein_matrix(n)
    b = matrix.entries
    f1 = samples.values
    x = np.empty(n + 1)
    x[0] = f1[0]
    x[n] = f1[n]
    if n >= 2:
        # X B = F(1) transposes to B^T X^T = F(1)^T; rows 0 and n of B^T are
        # unit vectors and drop out with the endpoint unknowns.
        a = b[1:n, 1:n].T
        rhs = f1[1:n] - b[0, 1:n] * f1[0] - b[n, 1:n] * f1[n]
        cond = np.linalg.cond(a, 1)
        if not np.isfinite(cond) or cond > 1e15:
            raise ConditioningError(
                f"node-evaluation system is numerically singular (cond ~ {cond:.3e})",
                condition_estimate=float(cond),
            )
        x[1:n] = np.linalg.solve(a, rhs)
    residual = float(np.max(np.abs(x @ b - f1)))
    return IterCoefficients(n, INFINITY, x, residual=residual)


def coefficients(
    samples: UniformSamples,
    k,
    force: bool = False,
    matrix: BernsteinMatrix | None = None,
) -> IterCoefficients:
    """Dispatch on k: finite order runs the recurrence, INFINITY the solve."""
    if k == INFINITY:
        return limit_coefficients(samples, force=force, matrix=matrix)
    return iterate_coefficients(samples, int(k), matrix=matrix)


def eval_iterated(coeffs: IterCoefficients, t):
    """Evaluate the iterated approximant at t, a point or a 1-d array."""
    return coeffs.coeffs @ basis_vector(coeffs.n, t)


def bernstein_apply(samples: UniformSamples, t: float) -> float:
    """Classical Bernstein approximant of degree n at t (order k = 1)."""
    return eval_iterated(IterCoefficients(samples.n, 1, samples.values), t)


def iterated_basis(n: int, i: int, k: int, t: float) -> float:
    """Iterated basis polynomial: order-k image of the node-i indicator."""
    if not 0 <= i <= n:
        raise ValueError(f"basis index i={i} outside 0..{n}")
    values = np.zeros(n + 1)
    values[i] = 1.0
    return eval_iterated(iterate_coefficients(UniformSamples(n, values), k), t)


def error_estimate(
    samples: UniformSamples, k: int, t: float, matrix: BernsteinMatrix | None = None
) -> float:
    """Computable error surrogate: order-k value minus order-(k+1) value."""
    if matrix is None:
        matrix = bernstein_matrix(samples.n)
    fk = iterate_coefficients(samples, k, matrix=matrix)
    fk1 = iterate_coefficients(samples, k + 1, matrix=matrix)
    return eval_iterated(fk, t) - eval_iterated(fk1, t)
