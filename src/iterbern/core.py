"""Bernstein basis evaluation and the classical Bernstein operator.

The operator acts on the n+1 samples f(i/n); everything downstream
(iteration, derivatives, integrals) is built on the basis vector and the
node-evaluation matrix produced here. The basis takes arrays of points: the
node matrix is the basis at the nodes, and a grid is one call too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ConditioningError(ValueError):
    """Linear solve rejected because the system is too ill-conditioned."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


def binomial(n: int, i: int) -> float:
    """Binomial coefficient C(n, i) as a float, correctly rounded."""
    if i < 0 or n < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({n}, {i})")
    if i > n:
        raise ValueError(f"binomial index i={i} exceeds n={n}")
    return float(math.comb(n, i))


def _checked_points(name: str, x, upper) -> np.ndarray:
    """x as a float array, after checking that every point lies in [0, upper]."""
    x = np.asarray(x, dtype=float)
    inside = (0.0 <= x) & (x <= upper)
    if not inside.all():
        raise ValueError(f"{name}={x[~inside][0]} outside [0, {upper}]")
    return x


def _sample_nodes(fn, nodes: np.ndarray) -> np.ndarray:
    """fn at each node; a non-finite value or an ArithmeticError raises ValueError."""
    values = np.empty(len(nodes))
    for j, x in enumerate(nodes.tolist()):
        try:
            values[j] = fn(x)
        except ArithmeticError:
            values[j] = math.nan
        if not math.isfinite(values[j]):
            raise ValueError(f"function is not finite at node x={x}")
    return values


def basis_vector(n: int, t) -> np.ndarray:
    """All n+1 Bernstein basis values at t via the triangular recurrence.

    t may be an array; the result then has shape (n+1,) + shape(t). Stable
    near the endpoints; at t = 0 and t = 1 the result is an exact unit
    vector (0**0 counts as 1).
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got n={n}")
    t = _checked_points("t", t, 1)
    b = np.zeros((n + 1,) + t.shape)
    b[0] = 1.0
    s = 1.0 - t
    for m in range(1, n + 1):
        b[1 : m + 1] = t * b[0:m] + s * b[1 : m + 1]
        b[0] *= s
    return b


def basis_eval(n: int, i: int, t: float) -> float:
    """Single Bernstein basis polynomial B_{ni}(t)."""
    if not 0 <= i <= n:
        raise ValueError(f"basis index i={i} outside 0..{n}")
    return float(basis_vector(n, t)[i])


@dataclass(frozen=True)
class UniformSamples:
    """Values f(i/n), i = 0..n, driving every classical/iterated approximant."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"degree must be positive, got n={self.n}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.n + 1,):
            raise ValueError(
                f"expected {self.n + 1} sample values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must all be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, fn, n: int) -> "UniformSamples":
        if n < 1:
            raise ValueError(f"degree must be positive, got n={n}")
        return cls(n, _sample_nodes(fn, np.arange(n + 1) / n))

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


@dataclass(frozen=True)
class BernsteinMatrix:
    """Dense (n+1) x (n+1) matrix with entries B_{n,i}(j/n).

    Right-multiplication by a row vector of node samples yields the node
    samples of the Bernstein approximant. Columns 0 and n are exact unit
    vectors, so endpoint samples are invariant under the operator.
    """

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (self.n + 1, self.n + 1):
            raise ValueError(f"matrix shape {entries.shape} does not match n={self.n}")
        object.__setattr__(self, "entries", entries)


def bernstein_matrix(n: int) -> BernsteinMatrix:
    """Build the node-evaluation matrix for degree n."""
    if n < 1:
        raise ValueError(f"degenerate degree n={n}; need n >= 1")
    return BernsteinMatrix(n, basis_vector(n, np.arange(n + 1) / n))
