"""q-analogs: q-numbers, Gaussian binomials, the q-Bernstein basis on its
nonuniform nodes, and the iterated q-Bernstein polynomials.

For q > 1 the nodes are pulled toward 0 and approximation quality near
t = 1 degrades quickly, so the supported range is capped. q < 1 evaluates
fine but the resulting polynomials do not converge to the sampled
function; that is a property of the operator, not an evaluation fault.
The basis takes arrays of points: the operator is the basis at the q-nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import _checked_points, binomial
from .iterated import _iterate

Q_MAX = 1.5
Q_WARN = 1.3
_Q_ONE_BAND = 1e-12


def q_number(x: float, q: float) -> float:
    """The q-number [x]_q = (1 - q^x) / (1 - q), with [x]_1 = x."""
    if q <= 0:
        raise ValueError(f"q must be positive, got q={q}")
    if abs(q - 1.0) < _Q_ONE_BAND:
        return float(x)
    return (1.0 - q**x) / (1.0 - q)


def q_binomial(n: int, r: int, q: float) -> float:
    """Gaussian binomial coefficient; 0 outside 0 <= r <= n.

    Computed as the product of q-number ratios (1-q^{n-i})/(1-q^{r-i}),
    which stays stable where the raw quotient-of-products overflows.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got q={q}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got n={n}")
    if r < 0 or r > n:
        return 0.0
    if r == 0:
        return 1.0
    if abs(q - 1.0) < _Q_ONE_BAND:
        return binomial(n, r)
    out = 1.0
    for i in range(r):
        out *= q_number((n - i) / (r - i), q ** (r - i))
    return out


@dataclass(frozen=True)
class QContext:
    """q parameter, degree and the nonuniform nodes [i]_q / [n]_q."""

    q: float
    n: int
    nodes: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not 0 < self.q <= Q_MAX:  # also rejects NaN
            raise ValueError(f"q={self.q} outside the supported range (0, {Q_MAX}]")
        if self.q > Q_WARN:
            warnings.warn(
                f"q={self.q} > {Q_WARN}: approximation near t=1 degrades rapidly",
                RuntimeWarning,
                stacklevel=2,
            )
        if self.n < 1:
            raise ValueError(f"degree must be positive, got n={self.n}")
        denom = q_number(self.n, self.q)
        nodes = np.array([q_number(i, self.q) / denom for i in range(self.n + 1)])
        nodes[0] = 0.0
        nodes[self.n] = 1.0
        object.__setattr__(self, "nodes", nodes)


def q_basis(ctx: QContext, i: int, t: float) -> float:
    """q-Bernstein basis Q_{ni}(t) in product form."""
    if not 0 <= i <= ctx.n:
        raise ValueError(f"basis index i={i} outside 0..{ctx.n}")
    return float(_q_basis_vector(ctx, t)[i])


def _q_basis_vector(ctx: QContext, t) -> np.ndarray:
    """All n+1 q-Bernstein basis values at t, shape (n+1,) + shape(t).

    Q_{ni}(t) = [n, i]_q t^i prod_{s < n-i} (1 - q^s t): factor s multiplies
    the rows i < n - s.
    """
    n, q = ctx.n, ctx.q
    t = _checked_points("t", t, 1)
    column = (n + 1,) + (1,) * t.ndim
    i = np.arange(n + 1).reshape(column)
    out = np.array([q_binomial(n, r, q) for r in range(n + 1)]).reshape(column) * t**i
    for s in range(n):
        out[: n - s] *= 1.0 - t * q**s
    return out


def q_apply(ctx: QContext, node_values, t: float) -> float:
    """q-Bernstein polynomial from samples at the q-nodes."""
    return q_iterated(ctx, node_values, 1, t)


def q_coefficients(ctx: QContext, node_values, k: int) -> np.ndarray:
    """Order-k coefficient vector for the iterated q-Bernstein polynomial.

    The classical recurrence, on the operator matrix built from the q-basis
    evaluated at the q-nodes.
    """
    node_values = np.asarray(node_values, dtype=float)
    if node_values.shape != (ctx.n + 1,):
        raise ValueError(
            f"expected {ctx.n + 1} node values, got shape {node_values.shape}"
        )
    return _iterate(node_values, lambda: _q_basis_vector(ctx, ctx.nodes), k)


def q_eval(ctx: QContext, coeffs, t):
    """Evaluate a q-basis coefficient vector at t, a point or a 1-d array."""
    return np.asarray(coeffs) @ _q_basis_vector(ctx, t)


def q_iterated(ctx: QContext, node_values, k: int, t: float) -> float:
    """Order-k iterated q-Bernstein polynomial at t."""
    return q_eval(ctx, q_coefficients(ctx, node_values, k), t)
