"""Iterated Szasz-Mirakyan approximation on a truncated node range.

The operator's Poisson sums are infinite; everything here works on the
index set 0..M where M is chosen so the Poisson tail mass beyond it, summed
from the top, is below a configured tolerance. The truncation defect is
measurable via partition_defect, never silently renormalized away. The
weights take arrays of points: the operator is the weights at the nodes.
Node j/n has Poisson mean j at every rate n, so the operator depends on M
alone, and contexts up to _TABLE_M_MAX read its complement from one table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ArgumentError, _checked_points, _complement, _sample_nodes
from .iterated import _iterate

# Most nodes a context may hold: the dense operator on them stays below 1 GiB.
HARD_NODE_CAP = 11_000

# Largest M whose complement I - W is a block of the shared table; the table
# holds 8 * (M + 1)^2 bytes, so 16 MiB at worst. It is rebuilt at a larger M.
_TABLE_M_MAX = 1447
_table = np.empty((0, 0))


def poisson_basis(n: int, i: int, x: float) -> float:
    """Poisson weight e^{-nx} (nx)^i / i!, computed in log space at index i alone."""
    if not 1 <= n < math.inf:  # also rejects NaN
        raise ArgumentError(f"rate scale must be >= 1 and finite, got n={n}")
    if not 0 <= x < math.inf:  # also rejects NaN
        raise ArgumentError(f"x={x} outside [0, inf)")
    if i < 0:
        raise ArgumentError(f"index must be nonnegative, got i={i}")
    if float(n) * float(x) == math.inf:
        raise ArgumentError(f"n*x overflows the float range, n={n}, x={x}")
    return float(_poisson_vector(n, x, i, start=i)[0])


def _poisson_vector(n: int, x, m: int, start: int = 0) -> np.ndarray:
    """Poisson weights for indices start..m at x, shape (m+1-start,) + shape(x).

    Built in place as exp(i log(nx) - nx - lgamma(i+1)): (nx)^i and i! never
    overflow, and no temporary of the result's size is made.
    """
    mean = n * np.asarray(x, dtype=float)
    i = np.arange(start, m + 1).reshape((-1,) + (1,) * mean.ndim)
    out = np.zeros((len(i),) + mean.shape)
    with np.errstate(divide="ignore"):
        np.multiply(i, np.log(mean), out=out, where=i > 0)
    out -= mean
    out -= np.array([math.lgamma(v + 1) for v in range(start, m + 1)]).reshape(i.shape)
    return np.exp(out, out=out)


def _node_weights(m: int) -> np.ndarray:
    """W[i, j] = e^-j j^i / i!, i, j = 0..m: the node matrix at any rate, as node j/n has mean j."""
    return _poisson_vector(1, np.arange(m + 1.0), m)


def _tail_masses(mean: float, start: int) -> np.ndarray:
    """Poisson tail masses P(X > m) for m = 0..horizon - 1, summed from the top.

    The horizon lies 20 standard deviations plus 60 above max(start, mean);
    the mass past it, below 1e-87 at every mean up to the node cap, is dropped.
    """
    horizon = max(start, math.ceil(mean)) + int(20 * math.sqrt(mean + 1)) + 60
    return np.cumsum(_poisson_vector(1, mean, horizon)[:0:-1])[::-1]


def _truncation_index(mean: float, tail_tol: float) -> int:
    """Smallest M >= ceil(mean) whose Poisson tail mass is below tail_tol."""
    start = math.ceil(mean)
    below = np.flatnonzero(_tail_masses(mean, start)[start:] < tail_tol)
    if below.size == 0:
        raise ArgumentError(f"could not reach tail mass {tail_tol} at mean {mean}")
    return start + int(below[0])


@dataclass(frozen=True)
class SzaszContext:
    """Rate scale n, working domain [0, x_max] and the truncation index M."""

    n: int
    x_max: float = 8.0
    tail_tol: float = 1e-12
    M: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.n < math.inf:  # also rejects NaN
            raise ArgumentError(f"rate scale must be >= 1 and finite, got n={self.n}")
        if not 0 < self.x_max < math.inf:  # also rejects NaN
            raise ArgumentError(f"x_max must be positive and finite, got {self.x_max}")
        if not 0 < self.tail_tol <= 1e-6:
            raise ArgumentError(f"tail_tol must be in (0, 1e-6], got {self.tail_tol}")
        if self.n * self.x_max > HARD_NODE_CAP:  # M >= n*x_max: reject before any tail
            raise ArgumentError(f"n*x_max={self.n * self.x_max} exceeds the cap {HARD_NODE_CAP}")
        m_tail = _truncation_index(self.n * self.x_max, self.tail_tol)
        # Iteration lets the truncation defect at the top node diffuse
        # downward by roughly a Poisson width per sweep; the buffer keeps
        # that contamination below tail_tol on [0, x_max] for moderate k.
        m = m_tail + math.ceil(3.2 * math.sqrt(m_tail * math.log(1.0 / self.tail_tol)))
        if m > HARD_NODE_CAP:
            raise ArgumentError(f"M={m} exceeds the node cap {HARD_NODE_CAP}")
        object.__setattr__(self, "M", m)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.M + 1) / self.n

    def basis(self, x) -> np.ndarray:
        """The M + 1 Poisson weights at x, a point or an array in [0, x_max]."""
        return _poisson_vector(self.n, _checked_points("x", x, self.x_max), self.M)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The node matrix W[i, j] = e^-j j^i / i!, the weights at all M + 1 nodes, kept."""
        return _node_weights(self.M)

    @functools.cached_property
    def complement(self) -> np.ndarray:
        """I - entries, read-only: the leading block of the shared table, kept.

        Each entry is computed on its own, so the block is bit for bit the
        same whatever the table's size; above _TABLE_M_MAX it is built alone.
        """
        global _table
        if self.M > _TABLE_M_MAX:
            return _complement(_node_weights(self.M))
        table = _table  # one read, so a rebuild elsewhere cannot swap it under the slice
        if len(table) <= self.M:
            _table = table = np.empty((0, 0))  # drop the old table before building the new one
            _table = table = _complement(_node_weights(self.M))
        return table[: self.M + 1, : self.M + 1]

    def partition_defect(self, x: float) -> float:
        """Truncation defect at x: the Poisson tail mass above M.

        Summed from the top while n*x <= M; past M the tail is most of the
        mass, so 1 - head is as accurate and cannot exceed 1.
        n*x is capped at HARD_NODE_CAP, as n*x_max is, which bounds the sum's length.
        """
        mean = self.n * x
        if not 0 <= mean <= HARD_NODE_CAP:  # also rejects NaN
            raise ArgumentError(f"x={x} outside [0, {HARD_NODE_CAP / self.n}]")
        if mean > self.M:
            return float(1.0 - np.sum(_poisson_vector(1, mean, self.M)))
        return float(_tail_masses(mean, self.M)[self.M])


def szasz_apply(fn, ctx: SzaszContext, x: float) -> float:
    """Truncated Szasz-Mirakyan approximant at x.

    Truncation error is bounded by ctx.tail_tol times the sup of |fn| over
    the node range, for x <= x_max.
    """
    return szasz_iterated(fn, ctx, 1, x)


def szasz_coefficients(fn, ctx: SzaszContext, k: int) -> np.ndarray:
    """Order-k node coefficients via the finite-matrix surrogate, ctx.complement.

    The coefficients come from the Bernstein recurrence. Compute once,
    then evaluate with szasz_eval on a grid.
    """
    return _iterate(_sample_nodes(fn, ctx.nodes), ctx, k)


def szasz_eval(ctx: SzaszContext, coeffs: np.ndarray, x):
    """Evaluate a coefficient vector at x, a point or a 1-d array in [0, x_max]."""
    return np.asarray(coeffs) @ ctx.basis(x)


def szasz_iterated(fn, ctx: SzaszContext, k: int, x: float) -> float:
    """Order-k iterated Szasz-Mirakyan approximant at x."""
    return szasz_eval(ctx, szasz_coefficients(fn, ctx, k), x)
