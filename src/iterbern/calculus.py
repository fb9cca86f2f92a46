"""Derivatives, integrals and the integral-free quadrature rule.

Derivatives of iterated approximants come from forward differences of their
coefficients, d^r/dt^r sum c_i B_ni = n!/(n-r)! sum (Delta^r c)_i B_{n-r,i};
integrals reduce to the cumulative basis integrals S_ni, which are
themselves sums of a degree-elevated basis.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ArgumentError, UniformSamples, _degree, _index, _sample_nodes, basis_vector
from .iterated import IterCoefficients, coefficients


def forward_difference(values, r: int, i: int) -> float:
    """r-th forward difference of a sample vector at index i."""
    values = np.asarray(values, dtype=float)
    if r < 0:
        raise ArgumentError(f"difference order must be nonnegative, got r={r}")
    if i < 0 or i + r >= len(values):
        raise ArgumentError(
            f"difference window [{i}, {i + r}] exceeds {len(values) - 1}"
        )
    return float(np.diff(values[i : i + r + 1], r)[0])


@np.errstate(over="raise", invalid="raise")
def _derivative_coefficients(c: np.ndarray, r: int) -> np.ndarray:
    """Degree-(n - r) coefficients of the r-th derivative: r steps of c <- m diff(c),
    m = n, n - 1, ...; a coefficient past the float range raises FloatingPointError."""
    n = len(c) - 1
    if r < 0:
        raise ArgumentError(f"derivative order must be nonnegative, got r={r}")
    if r > n:
        raise ArgumentError(f"derivative order r={r} exceeds degree n={n}")
    for m in range(n, n - r, -1):
        c = m * np.diff(c)
    return c


def derivative_eval(samples: UniformSamples, k, r: int, t):
    """r-th derivative of the order-k iterated approximant at t, a point or a 1-d
    array; k may be INFINITY, and r = 0 is plain evaluation."""
    c = _derivative_coefficients(coefficients(samples, k).coeffs, r)
    return c @ basis_vector(samples.n - r, t)


def basis_integral_vector(n: int, x) -> np.ndarray:
    """All cumulative basis integrals S_ni(x), i = 0..n.

    Uses the degree-elevation identity: S_ni(x) is 1/(n+1) times the tail
    sum of the degree-(n+1) basis at x, which may be an array.
    """
    elevated = basis_vector(_degree(n, 0) + 1, x)
    # tail[i] = sum of elevated[i+1:]; tail sums keep endpoint values exact.
    tail = np.cumsum(elevated[::-1], axis=0)[::-1]
    return tail[1:] / (n + 1)


def basis_integral(n: int, i: int, x: float) -> float:
    """S_ni(x), the integral of the basis polynomial B_ni from 0 to x."""
    i = _index(i, n)
    return float(basis_integral_vector(n, x)[i])


def integral_eval(coeffs: IterCoefficients, x):
    """Integral of the iterated approximant from 0 to x, a point or a 1-d array."""
    return coeffs.coeffs @ basis_integral_vector(coeffs.n, x)


def quadrature(g, a: float, b: float, n: int, k, force: bool = False) -> float:
    """Integral-free quadrature of g over [a, b].

    Samples f(t) = (b-a) * g(a + (b-a)t) at the uniform nodes, forms the
    order-k coefficients (k may be INFINITY) and returns their mean. Exact
    for linear integrands at every order. A scaled sample, coefficient or
    sum past the float range raises FloatingPointError.
    """
    width = float(b) - float(a)
    if not (a < b and math.isfinite(width)):
        raise ArgumentError(f"need finite a < b, got a={a}, b={b} (width {width})")
    n = _degree(n)
    with np.errstate(over="raise"):
        values = width * _sample_nodes(g, a + width * (np.arange(n + 1) / n))
        coeffs = coefficients(UniformSamples(n, values), k, force=force)
        return float(np.sum(coeffs.coeffs)) / (n + 1)
