"""q-analogs: q-numbers, Gaussian binomials, the q-Bernstein basis on its
nonuniform nodes, and the iterated q-Bernstein polynomials.

The nodes and the Gaussian row come from one vector of q-integers, each
expm1(x L) / expm1(L) with L = log1p(q - 1), which does not cancel as q -> 1
(below q = 0.5, L = log q, as q - 1 rounds to -1 for q <= 5.5e-17).

For q > 1 the nodes are pulled toward 0 and approximation quality near
t = 1 degrades quickly, so the supported range is capped. q < 1 evaluates
fine but the resulting polynomials do not converge to the sampled
function; that is a property of the operator, not an evaluation fault.
The basis takes arrays of points: the operator is the basis at the q-nodes.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ArgumentError, _checked_points, _complement, _degree, _index, _node_vector
from .iterated import _iterate, _minus_chord

Q_MAX = 1.5
Q_WARN = 1.3


@np.errstate(over="raise")
def q_number(x, q: float):
    """The q-number [x]_q = (1 - q^x) / (1 - q), with [x]_1 = x; x may be an array."""
    if not 0 < q < math.inf:  # also rejects NaN
        raise ArgumentError(f"q must be positive and finite, got q={q}")
    if q == 1.0:  # the limit, where the quotient below is 0/0
        return np.array(x, dtype=float)[()]
    log_q = math.log(q) if q < 0.5 else math.log1p(q - 1.0)  # q - 1 is exact from 0.5 up
    return (np.expm1(np.multiply(x, log_q)) / math.expm1(log_q))[()]


@np.errstate(over="raise")  # a row past the float range raises, never yields NaN bases
def _gaussian_row(n: int, q: float, qint: np.ndarray | None = None) -> np.ndarray:
    """[n, r]_q for r = 0..n: the running product of [n - r + 1]_q / [r]_q,
    from the q-integers qint = [0..n]_q, computed here unless given."""
    if qint is None:
        qint = q_number(np.arange(n + 1), q)
    return np.concatenate(([1.0], np.cumprod(qint[:0:-1] / qint[1:])))


def q_binomial(n: int, r: int, q: float) -> float:
    """Gaussian binomial coefficient [n, r]_q, read off the Gaussian row; 0 outside 0..n."""
    n = _degree(n, 0)
    r = operator.index(r)
    row = _gaussian_row(n, q)  # q_number checks q, also for r outside 0..n
    return float(row[r]) if 0 <= r <= n else 0.0


@dataclass(frozen=True)
class QContext:
    """q parameter, degree, the nonuniform nodes [i]_q / [n]_q and the Gaussian row."""

    q: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.q <= Q_MAX:  # also rejects NaN
            raise ArgumentError(f"q={self.q} outside the supported range (0, {Q_MAX}]")
        if self.q > Q_WARN:
            warnings.warn(
                f"q={self.q} > {Q_WARN}: approximation near t=1 degrades rapidly",
                RuntimeWarning,
                stacklevel=3,  # past the dataclass __init__ to its caller
            )
        object.__setattr__(self, "n", _degree(self.n))
        qint = q_number(np.arange(self.n + 1), self.q)
        object.__setattr__(self, "nodes", qint / qint[self.n])
        object.__setattr__(self, "_row", _gaussian_row(self.n, self.q, qint))

    @np.errstate(over="raise")  # q > 1 overflow raises, as in the Gaussian row
    def basis(self, t) -> np.ndarray:
        """All n+1 q-Bernstein basis values at t, shape (n+1,) + shape(t).

        Q_{ni}(t) = [n, i]_q t^i tail_{n-i}(t), where tail_m(t) = prod_{s < m}
        (1 - q^s t) is one running product over s.
        """
        n, q = self.n, self.q
        t = _checked_points("t", t, 1)
        column = (n + 1,) + (1,) * t.ndim
        row = self._row.reshape(column)
        powers = np.arange(n + 1).reshape(column)
        tail = np.cumprod(1.0 - q ** powers[:-1] * t, axis=0)
        tail = np.concatenate((np.ones((1,) + t.shape), tail))
        return row * t**powers * tail[::-1]

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The node matrix, the basis at the q-nodes, built on first use and kept."""
        return self.basis(self.nodes)

    @functools.cached_property
    def complement(self) -> np.ndarray:
        """I - entries, read-only, from a build of its own on first use and kept."""
        return _complement(self.basis(self.nodes))


def q_basis(ctx: QContext, i: int, t: float) -> float:
    """q-Bernstein basis Q_{ni}(t) in product form."""
    i = _index(i, ctx.n)
    return float(ctx.basis(t)[i])


def q_apply(ctx: QContext, node_values, t: float) -> float:
    """q-Bernstein polynomial from samples at the q-nodes."""
    return q_iterated(ctx, node_values, 1, t)


def q_coefficients(ctx: QContext, node_values, k: int) -> np.ndarray:
    """Order-k coefficient vector for the iterated q-Bernstein polynomial.

    The classical recurrence on the samples minus their chord, with ctx.complement.
    """
    node_values = _node_vector(node_values, ctx.n, "node values")
    g = _minus_chord(node_values, ctx.nodes)
    return node_values + (_iterate(g, ctx, k) - g)


def q_eval(ctx: QContext, coeffs, t):
    """Evaluate a q-basis coefficient vector at t, a point or a 1-d array."""
    return np.asarray(coeffs) @ ctx.basis(t)


def q_iterated(ctx: QContext, node_values, k: int, t: float) -> float:
    """Order-k iterated q-Bernstein polynomial at t."""
    return q_eval(ctx, q_coefficients(ctx, node_values, k), t)
