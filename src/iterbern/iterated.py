"""Iterated Bernstein coefficients: finite order k and the k -> infinity limit.

The coefficient row vector of order k satisfies the recurrence
F(k+1) = F(k)(I - B) + F(1) with F(1) the raw node samples, so that
F(k) = F(1) (I + (I - B) + ... + (I - B)^(k-1)) (Kelisky & Rivlin). The
recurrence is the same for every operator family; _iterate runs exactly
k - 1 steps of it, each one product with the family's cached complement
I - B and one add. The limit solves X B = F(1), which makes the limiting
approximant interpolate the samples at the nodes; it is the only path with a
degree cap. The Bernstein and q-Bernstein operators reproduce the end-sample
chord l, so each order is F(1) + (op(g) - g), g = F(1) - l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ArgumentError,
    BernsteinMatrix,
    ConditioningError,
    UniformSamples,
    _degree,
    _index,
    _node_vector,
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
        object.__setattr__(self, "n", _degree(self.n, 0))
        object.__setattr__(self, "coeffs", _node_vector(self.coeffs, self.n, "coefficients"))


@np.errstate(over="raise", invalid="raise")
def _iterate(f1: np.ndarray, op, k) -> np.ndarray:
    """Order-k coefficients F(k) from node values f1 and a family's operator op.

    Runs exactly k - 1 steps of the recurrence, so order k means k; k is a
    whole number in 1..MAX_ITERATIONS of any type (2.0 is order 2), and 2.5,
    nan or inf raise ArgumentError. Only a step reads op.complement, the
    matrix I - B, so order 1 builds no operator. A step past the float range
    raises FloatingPointError.
    """
    if k > MAX_ITERATIONS:
        raise ArgumentError(f"k={k} exceeds the iteration cap {MAX_ITERATIONS}")
    if not (k >= 1 and k == int(k)):
        raise ArgumentError(f"iteration order must be a whole number >= 1, got k={k}")
    f = f1.copy()
    for _ in range(int(k) - 1):
        f = f @ op.complement + f1
    return f


@np.errstate(over="raise", invalid="raise")
def _minus_chord(f1: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """f1 minus its end-sample chord; exactly 0 at both ends and for constant f1."""
    return (f1 - f1[0]) - (f1[-1] - f1[0]) * nodes


def iterate_coefficients(
    samples: UniformSamples, k: int, matrix: BernsteinMatrix | None = None
) -> IterCoefficients:
    """Coefficients of order k via the shared recurrence on the chord-free part."""
    op = matrix if matrix is not None else bernstein_matrix(samples.n)
    g = _minus_chord(samples.values, samples.nodes)
    return IterCoefficients(samples.n, k, samples.values + (_iterate(g, op, k) - g))


@np.errstate(over="raise", invalid="raise")
def limit_coefficients(
    samples: UniformSamples, force: bool = False, matrix: BernsteinMatrix | None = None
) -> IterCoefficients:
    """The k -> infinity coefficients, solving X B = F(1) by pivoted LU.

    The chord-free part g vanishes at both end nodes and the endpoint
    columns of B are unit vectors, so only the interior system Y B = g is
    solved; endpoint interpolation stays exact regardless of conditioning.
    A solution or residual past the float range raises FloatingPointError.
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
    g = _minus_chord(f1, samples.nodes)
    x = f1.copy()
    if n >= 2:
        cond = matrix._interior_condition
        if not np.isfinite(cond) or cond > 1e15:
            raise ConditioningError(
                f"node-evaluation system is numerically singular (cond ~ {cond:.3e})",
                condition_estimate=float(cond),
            )
        y = np.linalg.solve(b[1:n, 1:n].T, g[1:n])
        if not np.isfinite(y).all():  # the solve itself ignores overflow
            raise FloatingPointError("overflow encountered in the k=inf solve")
        x[1:n] += y - g[1:n]
    residual = float(np.max(np.abs(x @ b - f1)))
    return IterCoefficients(n, INFINITY, x, residual=residual)


def coefficients(
    samples: UniformSamples,
    k,
    force: bool = False,
    matrix: BernsteinMatrix | None = None,
) -> IterCoefficients:
    """Dispatch on k: a whole order runs the recurrence, INFINITY the solve."""
    if k == INFINITY:
        return limit_coefficients(samples, force=force, matrix=matrix)
    return iterate_coefficients(samples, k, matrix=matrix)


def eval_iterated(coeffs: IterCoefficients, t):
    """Evaluate the iterated approximant at t, a point or a 1-d array."""
    return coeffs.coeffs @ basis_vector(coeffs.n, t)


def bernstein_apply(samples: UniformSamples, t: float) -> float:
    """Classical Bernstein approximant of degree n at t (order k = 1)."""
    return eval_iterated(IterCoefficients(samples.n, 1, samples.values), t)


def iterated_basis(n: int, i: int, k, t: float) -> float:
    """Order-k image of the node-i indicator; at k = INFINITY, the Lagrange basis polynomial."""
    i = _index(i, n)
    values = np.zeros(n + 1)
    values[i] = 1.0
    return eval_iterated(coefficients(UniformSamples(n, values), k), t)


def error_estimate(samples: UniformSamples, k, t: float) -> float:
    """Order-k minus order-(k+1) value at t, F(k) B - F(1); the solve's residual at k = INFINITY."""
    matrix = bernstein_matrix(samples.n)
    fk = coefficients(samples, k, matrix=matrix).coeffs
    return (fk - fk @ matrix.complement - samples.values) @ basis_vector(samples.n, t)
