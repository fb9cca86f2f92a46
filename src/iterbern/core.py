"""Bernstein basis evaluation and the classical Bernstein operator.

The operator acts on the n+1 samples f(i/n); everything downstream
(iteration, derivatives, integrals) is built on the basis vector and the
node-evaluation matrix produced here. The basis takes arrays of points: the
node matrix is the basis at the nodes, and a grid is one call too.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Degrees whose node matrix and complement I - B are built once and shared;
# each of the two holds 8 * sum((n+1)^2) bytes, 5.8 MB, so 11.6 MB at worst.
_CACHED_DEGREE_MAX = 128


class ArgumentError(ValueError):
    """An argument outside its documented domain; the CLI exits 2 for it."""


class ConditioningError(ValueError):
    """Linear solve rejected because the system is too ill-conditioned."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


def _degree(n, least: int = 1) -> int:
    """n as an int (operator.index: 5.0 raises TypeError), checked to be >= least, 0 or 1."""
    n = operator.index(n)
    if n < least:
        raise ArgumentError(f"degree must be {'positive' if least else 'nonnegative'}, got n={n}")
    return n


def _index(i, n: int) -> int:
    """i as an int, after checking that it is a basis index 0..n."""
    i = operator.index(i)
    if not 0 <= i <= n:
        raise ArgumentError(f"basis index i={i} outside 0..{n}")
    return i


def _node_vector(values, n: int, what: str) -> np.ndarray:
    """values as a float array, after checking its shape (n + 1,) and that it is finite."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n + 1,):
        raise ArgumentError(f"expected {n + 1} {what}, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ArgumentError(f"{what} must all be finite")
    return values


def _complement(a: np.ndarray) -> np.ndarray:
    """I - a in a's own storage, read-only; 0 - a keeps +0.0, so it is bit for bit np.eye - a."""
    np.subtract(0.0, a, out=a)
    a[np.diag_indices_from(a)] += 1.0
    a.flags.writeable = False
    return a


def binomial(n: int, i: int) -> float:
    """Binomial coefficient C(n, i) as a float, correctly rounded."""
    if i < 0 or n < 0:
        raise ArgumentError(f"binomial requires nonnegative arguments, got ({n}, {i})")
    if i > n:
        raise ArgumentError(f"binomial index i={i} exceeds n={n}")
    return float(math.comb(n, i))


def _checked_points(name: str, x, upper) -> np.ndarray:
    """x as a float array, after checking that every point lies in [0, upper]."""
    x = np.asarray(x, dtype=float)
    inside = (0.0 <= x) & (x <= upper)
    if not inside.all():
        raise ArgumentError(f"{name}={x[~inside][0]} outside [0, {upper}]")
    return x


def _sample_nodes(fn, nodes: np.ndarray) -> np.ndarray:
    """fn at each node; a non-finite value, ArithmeticError or ValueError raises ValueError."""
    values = np.empty(len(nodes))
    for j, x in enumerate(nodes.tolist()):
        try:
            values[j] = fn(x)
        except (ArithmeticError, ValueError):  # e.g. math.sin(inf)
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
    n = _degree(n, 0)
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
    i = _index(i, n)
    return float(basis_vector(n, t)[i])


@dataclass(frozen=True)
class UniformSamples:
    """Values f(i/n), i = 0..n, driving every classical/iterated approximant."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _degree(self.n))
        object.__setattr__(self, "values", _node_vector(self.values, self.n, "sample values"))

    @classmethod
    def from_function(cls, fn, n: int) -> "UniformSamples":
        return cls(n, _sample_nodes(fn, np.arange(_degree(n) + 1) / n))

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


@dataclass(frozen=True)
class BernsteinMatrix:
    """Dense (n+1) x (n+1) read-only matrix with entries B_{n,i}(j/n), built from n.

    Right-multiplication by a row vector of node samples yields the node
    samples of the Bernstein approximant. Columns 0 and n are exact unit
    vectors, so endpoint samples are invariant under the operator.
    """

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _degree(self.n))

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The matrix itself, built on first use and kept."""
        entries = basis_vector(self.n, np.arange(self.n + 1) / self.n)
        entries.flags.writeable = False
        return entries

    @functools.cached_property
    def complement(self) -> np.ndarray:
        """I - B, read-only, from a build of its own on first use and kept."""
        return _complement(basis_vector(self.n, np.arange(self.n + 1) / self.n))

    @functools.cached_property
    def _interior_condition(self) -> float:
        """1-norm condition estimate of the interior block B[1:n, 1:n]^T."""
        return np.linalg.cond(self.entries[1 : self.n, 1 : self.n].T, 1)


_cached_matrix = functools.cache(BernsteinMatrix)


def bernstein_matrix(n: int) -> BernsteinMatrix:
    """The read-only node-evaluation matrix for degree n.

    Degrees up to _CACHED_DEGREE_MAX are built once and shared; higher ones
    are built on every call and never retained.
    """
    n = _degree(n)
    return _cached_matrix(n) if n <= _CACHED_DEGREE_MAX else BernsteinMatrix(n)
