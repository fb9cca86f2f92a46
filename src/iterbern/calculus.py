"""Derivatives, integrals and the integral-free quadrature rule.

Derivatives of iterated approximants come from forward differences of their
coefficients, d^r/dt^r sum c_i B_ni = n!/(n-r)! sum (Delta^r c)_i B_{n-r,i};
integrals reduce to the cumulative basis integrals S_ni, which are
themselves sums of a degree-elevated basis.
"""

from __future__ import annotations

import math

import numpy as np

from .core import UniformSamples, _sample_nodes, basis_vector
from .iterated import IterCoefficients, coefficients


def forward_difference(values, r: int, i: int) -> float:
    """r-th forward difference of a sample vector at index i."""
    values = np.asarray(values, dtype=float)
    if r < 0:
        raise ValueError(f"difference order must be nonnegative, got r={r}")
    if i < 0 or i + r >= len(values):
        raise ValueError(
            f"difference window [{i}, {i + r}] exceeds {len(values) - 1}"
        )
    return float(np.diff(values[i : i + r + 1], r)[0])


def derivative_eval(samples: UniformSamples, k, r: int, t):
    """r-th derivative of the order-k iterated approximant at t.

    t is a point or a 1-d array; k may be INFINITY. r = 0 is plain
    evaluation, so grid sweeps can treat the value and its derivatives
    uniformly.
    """
    n = samples.n
    if r < 0:
        raise ValueError(f"derivative order must be nonnegative, got r={r}")
    if r > n:
        raise ValueError(f"derivative order r={r} exceeds degree n={n}")
    return _derivative(coefficients(samples, k), r, t)


def _derivative(coeffs: IterCoefficients, r: int, t):
    """r-th derivative, 0 <= r <= n, of the approximant with these coefficients at t."""
    n, c = coeffs.n, coeffs.coeffs
    return math.perm(n, r) * (np.diff(c, r) @ basis_vector(n - r, t))


def basis_integral_vector(n: int, x) -> np.ndarray:
    """All cumulative basis integrals S_ni(x), i = 0..n.

    Uses the degree-elevation identity: S_ni(x) is 1/(n+1) times the tail
    sum of the degree-(n+1) basis at x, which may be an array.
    """
    elevated = basis_vector(n + 1, x)
    # tail[i] = sum of elevated[i+1:]; tail sums keep endpoint values exact.
    tail = np.cumsum(elevated[::-1], axis=0)[::-1]
    return tail[1:] / (n + 1)


def basis_integral(n: int, i: int, x: float) -> float:
    """S_ni(x), the integral of the basis polynomial B_ni from 0 to x."""
    if not 0 <= i <= n:
        raise ValueError(f"basis index i={i} outside 0..{n}")
    return float(basis_integral_vector(n, x)[i])


def integral_eval(coeffs: IterCoefficients, x):
    """Integral of the iterated approximant from 0 to x, a point or a 1-d array."""
    return coeffs.coeffs @ basis_integral_vector(coeffs.n, x)


def quadrature(g, a: float, b: float, n: int, k, force: bool = False) -> float:
    """Integral-free quadrature of g over [a, b].

    Samples f(t) = (b-a) * g(a + (b-a)t) at the uniform nodes, forms the
    order-k coefficients (k may be INFINITY) and returns their mean. Exact
    for linear integrands at every order.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    width = b - a
    values = width * _sample_nodes(g, a + width * (np.arange(n + 1) / n))
    coeffs = coefficients(UniformSamples(n, values), k, force=force)
    return float(np.sum(coeffs.coeffs)) / (n + 1)
