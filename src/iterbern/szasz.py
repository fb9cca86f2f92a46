"""Iterated Szasz-Mirakyan approximation on a truncated node range.

The operator's Poisson sums are infinite; everything here works on the
index set 0..M where M is chosen so the Poisson tail mass beyond it is
below a configured tolerance. The truncation defect is measurable via
partition_defect, never silently renormalized away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _node_matrix
from .iterated import _iterate

# Iterating on more nodes than this is a sign the context is misconfigured.
HARD_NODE_CAP = 50_000


def poisson_basis(n: int, i: int, x: float) -> float:
    """Poisson weight e^{-nx} (nx)^i / i!.

    Direct products for small i, log space beyond to avoid overflow of
    (nx)^i and i!.
    """
    if x < 0:
        raise ValueError(f"x={x} outside [0, inf)")
    if i < 0:
        raise ValueError(f"index must be nonnegative, got i={i}")
    if x == 0.0:
        return 1.0 if i == 0 else 0.0
    mean = n * x
    if i <= 20:
        return math.exp(-mean) * mean**i / math.factorial(i)
    return math.exp(-mean + i * math.log(mean) - math.lgamma(i + 1))


def _poisson_vector(n: int, x: float, m: int) -> np.ndarray:
    """Poisson weights for indices 0..m at a single point."""
    if x == 0.0:
        out = np.zeros(m + 1)
        out[0] = 1.0
        return out
    mean = n * x
    i = np.arange(m + 1)
    log_pmf = -mean + i * np.log(mean) - np.array([math.lgamma(v + 1) for v in i])
    return np.exp(log_pmf)


def _truncation_index(mean: float, tail_tol: float) -> int:
    """Smallest M >= ceil(mean) whose Poisson tail mass is below tail_tol.

    Found by direct summation of the pmf, which is exact control rather
    than an analytic bound; valid for mean up to ~1e4.
    """
    start = max(int(math.ceil(mean)), 1)
    horizon = start + int(20 * math.sqrt(mean + 1)) + 60
    pmf = _poisson_vector(1, mean, horizon)
    tail = 1.0 - np.cumsum(pmf)
    for m in range(start, horizon + 1):
        if tail[m] < tail_tol:
            return m
    raise ValueError(
        f"could not reach tail mass {tail_tol} below index {horizon}"
    )


@dataclass(frozen=True)
class SzaszContext:
    """Rate scale n, working domain [0, x_max] and the truncation index M."""

    n: int
    x_max: float = 8.0
    tail_tol: float = 1e-12
    M: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"rate scale must be positive, got n={self.n}")
        if self.x_max <= 0:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if not 0 < self.tail_tol <= 1e-6:
            raise ValueError(f"tail_tol must be in (0, 1e-6], got {self.tail_tol}")
        if self.M == 0:
            m_tail = _truncation_index(self.n * self.x_max, self.tail_tol)
            # Iteration lets the truncation defect at the top node diffuse
            # downward by roughly a Poisson width per sweep; the buffer keeps
            # that contamination below tail_tol on [0, x_max] for moderate k.
            # An explicitly supplied M is honored literally, without buffer.
            buffer = math.ceil(3.2 * math.sqrt(m_tail * math.log(1.0 / self.tail_tol)))
            object.__setattr__(self, "M", m_tail + buffer)
        elif self.M < math.ceil(self.n * self.x_max):
            raise ValueError(
                f"M={self.M} is below ceil(n*x_max)={math.ceil(self.n * self.x_max)}"
            )

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.M + 1) / self.n

    def partition_defect(self, x: float) -> float:
        """Truncation defect 1 - sum of the retained weights at x."""
        return 1.0 - float(np.sum(_poisson_vector(self.n, x, self.M)))


def _node_values(fn, ctx: SzaszContext) -> np.ndarray:
    values = np.empty(ctx.M + 1)
    for i in range(ctx.M + 1):
        v = float(fn(i / ctx.n))
        if not math.isfinite(v):
            raise ValueError(f"function is not finite at node x={i / ctx.n}")
        values[i] = v
    return values


def szasz_apply(fn, ctx: SzaszContext, x: float) -> float:
    """Truncated Szasz-Mirakyan approximant at x.

    Truncation error is bounded by ctx.tail_tol times the sup of |fn| over
    the node range, for x <= x_max.
    """
    return szasz_iterated(fn, ctx, 1, x)


def szasz_coefficients(fn, ctx: SzaszContext, k: int) -> np.ndarray:
    """Order-k node coefficients via the finite-matrix surrogate.

    The operator matrix holds the Poisson weights evaluated at the
    truncated nodes; the coefficients then come from the Bernstein
    recurrence. Compute once, then evaluate with szasz_eval on a grid.
    """
    if ctx.M > HARD_NODE_CAP:
        raise ValueError(f"M={ctx.M} exceeds the node cap {HARD_NODE_CAP}")
    return _iterate(
        _node_values(fn, ctx),
        lambda: _node_matrix(lambda x: _poisson_vector(ctx.n, x, ctx.M), ctx.nodes),
        k,
    )


def szasz_eval(ctx: SzaszContext, coeffs: np.ndarray, x: float) -> float:
    """Evaluate a coefficient vector against the truncated Poisson weights."""
    if not 0 <= x <= ctx.x_max:
        raise ValueError(f"x={x} outside [0, {ctx.x_max}]")
    return float(np.asarray(coeffs) @ _poisson_vector(ctx.n, x, ctx.M))


def szasz_iterated(fn, ctx: SzaszContext, k: int, x: float) -> float:
    """Order-k iterated Szasz-Mirakyan approximant at a single point."""
    return szasz_eval(ctx, szasz_coefficients(fn, ctx, k), x)
