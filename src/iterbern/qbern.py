"""q-analogs: q-numbers, Gaussian binomials, the q-Bernstein basis on its
nonuniform nodes, and the iterated q-Bernstein polynomials.

For q > 1 the nodes are pulled toward 0 and approximation quality near
t = 1 degrades quickly, so the supported range is capped. q < 1 evaluates
fine but the resulting polynomials do not converge to the sampled
function; that is a property of the operator, not an evaluation fault.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import _node_matrix, binomial
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
        if self.q <= 0:
            raise ValueError(f"q must be positive, got q={self.q}")
        if self.q > Q_MAX:
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
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    out = q_binomial(ctx.n, i, ctx.q) * t**i
    for j in range(1, ctx.n - i + 1):
        out *= 1.0 - t * ctx.q ** (j - 1)
    return out


def _q_basis_vector(ctx: QContext, t: float) -> np.ndarray:
    return np.array([q_basis(ctx, i, t) for i in range(ctx.n + 1)])


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
    return _iterate(
        node_values, lambda: _node_matrix(lambda t: _q_basis_vector(ctx, t), ctx.nodes), k
    )


def q_eval(ctx: QContext, coeffs, t: float) -> float:
    """Evaluate a q-basis coefficient vector at t."""
    return float(np.asarray(coeffs) @ _q_basis_vector(ctx, t))


def q_iterated(ctx: QContext, node_values, k: int, t: float) -> float:
    """Order-k iterated q-Bernstein polynomial at a single point."""
    return q_eval(ctx, q_coefficients(ctx, node_values, k), t)
