"""Independent high-precision references for every output the benchmark checks.

Nothing here calls iterbern: the only shared inputs are the registry
functions themselves, which are the workload's data. Each family has its own
reference arithmetic:

* classical Bernstein and q-Bernstein: fixed-point integers scaled by
  2**FRAC (FRAC = 200 bits, about 60 significant digits, the representation
  mpmath uses internally). Finite order k is the geometric sum
  f1 * sum_{j<k} (I - B)^j, formed by binary splitting over cached matrix
  powers, so k = 10**4 costs 2 log2(k) vector-matrix products.
* k = inf and its quadrature: node interpolation, the interior system
  inverted in the same fixed point by Newton-Schulz iteration from the
  double-precision inverse (quadratic convergence to the 2**-FRAC grid).
* Szasz-Mirakyan: Poisson weights anchored at the mode with mpmath and
  extended by the exact ratio recurrence in 64-bit-mantissa extended
  precision (np.longdouble), over a node range the oracle picks itself, so
  the library's truncation is part of what is measured.

Samples are the registry function evaluated at the correctly rounded node,
so the reference is the exact operator applied to the same double inputs
the library sees.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

FRAC = 200
ONE = 1 << FRAC

# One correctness tolerance for every output, taken from the repository's
# golden-table standard (TABLE_TOLERANCE = 5e-7 in iterbern.cli); applied as
# a normwise relative error over each output array.
TOLERANCE = 5e-7

# Digits are reported within these limits: a double output cannot carry more
# than 17, and a non-finite output has no digit count at all.
DIGITS_CAP = 17.0
DIGITS_FLOOR = -30.0


def _defect_threshold() -> int:
    """Smallest k whose alternating-sum amplification C(k, k//2) * 2**-52
    exceeds TOLERANCE.

    derivative_eval sums (-1)^(j-1) C(k, j) * (...) over j <= k, so its
    rounding error grows like the largest binomial coefficient. Outputs of
    order at or above this threshold form the known-defect class: they are
    counted as failures but do not mark the run incorrect.
    """
    k = 1
    while math.comb(k, k // 2) * 2.0**-52 <= TOLERANCE:
        k += 1
    return k


DERIVATIVE_DEFECT_K = _defect_threshold()


# ----------------------------------------------------------------- fixed point


def fx(x) -> int:
    """A float or Fraction as a fixed-point integer (floor, error < 2**-FRAC)."""
    p, q = x.as_integer_ratio()
    return (p << FRAC) // q


def fx_array(values) -> np.ndarray:
    return np.array([fx(float(v)) for v in values], dtype=object)


def to_float(v: int) -> float:
    return float(Fraction(v, ONE))


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    return (v @ m) >> FRAC


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a @ b) >> FRAC


def _norm1(m: np.ndarray) -> float:
    """Max column sum of a fixed-point matrix."""
    return max(sum(abs(int(v)) for v in col) for col in m.T) / ONE


def rel_error_fixed(values, ref: np.ndarray) -> float:
    """Normwise relative error of double outputs against fixed-point refs."""
    values = np.asarray(values, dtype=float)
    if values.shape != ref.shape or not np.all(np.isfinite(values)):
        return math.inf
    err = max(abs(fx(float(v)) - int(r)) for v, r in zip(values, ref))
    scale = max(abs(int(r)) for r in ref)
    if scale == 0:
        return 0.0 if err == 0 else math.inf
    return float(Fraction(err, scale))


def rel_error_ld(values, ref: np.ndarray) -> float:
    """Normwise relative error against extended-precision references."""
    values = np.asarray(values, dtype=float)
    if values.shape != ref.shape or not np.all(np.isfinite(values)):
        return math.inf
    err = np.max(np.abs(values.astype(np.longdouble) - ref))
    scale = np.max(np.abs(ref))
    return float(err / scale) if scale > 0 else (0.0 if err == 0 else math.inf)


def digits(rel_err: float) -> float:
    """-log10 of a relative error, clamped to [DIGITS_FLOOR, DIGITS_CAP]."""
    if rel_err <= 0:
        return DIGITS_CAP
    if math.isinf(rel_err):
        return DIGITS_FLOOR
    return min(DIGITS_CAP, max(DIGITS_FLOOR, -math.log10(rel_err)))


# ------------------------------------------------------- classical Bernstein


class BernsteinOracle:
    """Caches per degree: the operator, its binary-splitting levels, the
    k = inf inverse and basis tables on point sets."""

    def __init__(self):
        self._matrices: dict[int, np.ndarray] = {}
        self._levels: dict[int, list] = {}
        self._inverse: dict[int, np.ndarray] = {}
        self._basis: dict[tuple, np.ndarray] = {}

    @staticmethod
    def _entry(n: int, i: int, j: int) -> Fraction:
        """B[i][j] = C(n, i) (j/n)^i (1 - j/n)^(n-i), exactly."""
        return Fraction(math.comb(n, i) * j**i * (n - j) ** (n - i), n**n)

    def matrix(self, n: int) -> np.ndarray:
        m = self._matrices.get(n)
        if m is None:
            m = self._matrices[n] = np.array(
                [[fx(self._entry(n, i, j)) for j in range(n + 1)] for i in range(n + 1)],
                dtype=object,
            )
        return m

    def _level(self, n: int, m: int):
        """(P_m, G_m) with P_m = (I - B)^(2^m), G_m = sum_{j < 2^m} (I - B)^j."""
        levels = self._levels.get(n)
        if levels is None:
            eye = np.array(
                [[ONE if i == j else 0 for j in range(n + 1)] for i in range(n + 1)], dtype=object
            )
            levels = self._levels[n] = [(eye - self.matrix(n), eye)]
        while len(levels) <= m:
            p, g = levels[-1]
            levels.append((_matmul(p, p), g + _matmul(g, p)))
        return levels[m]

    def coefficients(self, samples, k) -> np.ndarray:
        """Order-k coefficients (fixed point) of double samples f(i/n)."""
        return self.coefficients_fx(fx_array(samples), k)

    def coefficients_fx(self, f1: np.ndarray, k) -> np.ndarray:
        """Order-k coefficients of fixed-point samples; k may be math.inf."""
        n = len(f1) - 1
        if k == math.inf:
            return self._limit(f1)
        k = int(k)
        out = np.zeros(n + 1, dtype=object)
        v = f1
        for m in reversed(range(k.bit_length())):
            if k >> m & 1:
                p, g = self._level(n, m)
                out = out + _vecmat(v, g)
                v = _vecmat(v, p)
        return out

    def _interior_inverse(self, n: int) -> np.ndarray:
        """Inverse of A[r, c] = B[c][r], r, c = 1..n-1, in fixed point.

        Newton-Schulz, X <- X (2I - A X), from the double-precision inverse:
        the error squares on every step, so a start with ~4 correct digits
        (cond <= 1.3e12 for n <= 30) reaches the rounding level of the
        fixed-point grid in about six steps; iteration stops when the update
        stops shrinking.
        """
        inv = self._inverse.get(n)
        if inv is None:
            a = np.ascontiguousarray(self.matrix(n)[1:n, 1:n].T)
            start = np.linalg.inv(np.array([[to_float(v) for v in row] for row in a]))
            inv = np.array([[fx(float(v)) for v in row] for row in start], dtype=object)
            two = np.diag([2 * ONE] * (n - 1)).astype(object)
            step = math.inf
            for _ in range(64):
                inv_next = _matmul(inv, two - _matmul(a, inv))
                last, step = step, max(abs(int(v)) for v in (inv_next - inv).flat)
                inv = inv_next
                if step == 0 or step >= last:  # stalled at the rounding level
                    break
            scale = max(abs(int(v)) for v in inv.flat)
            if step > scale >> 100:
                raise ArithmeticError(f"Newton-Schulz did not converge for n={n}")
            self._inverse[n] = inv
        return inv

    def condition(self, n: int) -> float:
        """1-norm condition number of the interior k = inf system."""
        if n < 2:
            return 1.0
        return _norm1(self.matrix(n)[1:n, 1:n].T) * _norm1(self._interior_inverse(n))

    def _limit(self, f1: np.ndarray) -> np.ndarray:
        """Solve X B = F(1) with X fixed at the endpoints.

        Columns 0 and n of B are unit vectors, so only the interior system
        sum_c B[c][r] x_c = f_r - B[0][r] f_0 - B[n][r] f_n, r = 1..n-1, is solved.
        """
        n = len(f1) - 1
        x = f1.copy()
        if n < 2:
            return x
        b = self.matrix(n)
        rhs = f1[1:n] - ((f1[0] * b[0, 1:n]) >> FRAC) - ((f1[n] * b[n, 1:n]) >> FRAC)
        x[1:n] = (self._interior_inverse(n) @ rhs) >> FRAC
        return x

    def basis(self, n: int, points) -> np.ndarray:
        """Table [i, p] = B_{n,i}(t_p) in fixed point, exact up to the final floor."""
        points = np.asarray(points, dtype=float)
        key = (n, points.tobytes())
        table = self._basis.get(key)
        if table is None:
            table = np.empty((n + 1, len(points)), dtype=object)
            for col, t in enumerate(points):
                p, q = float(t).as_integer_ratio()
                den = q**n
                for i in range(n + 1):
                    table[i, col] = ((math.comb(n, i) * p**i * (q - p) ** (n - i)) << FRAC) // den
            self._basis[key] = table
        return table

    def evaluate(self, coeffs: np.ndarray, points) -> np.ndarray:
        return (coeffs @ self.basis(len(coeffs) - 1, points)) >> FRAC

    def integral(self, coeffs: np.ndarray, points) -> np.ndarray:
        """int_0^x of the approximant: S_ni(x) = tail sums of the degree n+1 basis / (n+1)."""
        n = len(coeffs) - 1
        elevated = self.basis(n + 1, points)
        tails = np.cumsum(elevated[::-1], axis=0)[::-1][1:]
        return ((coeffs @ tails) >> FRAC) // (n + 1)

    def derivative(self, coeffs: np.ndarray, r: int, points) -> np.ndarray:
        """n!/(n-r)! * sum_i (Delta^r c)_i B_{n-r,i}(t)."""
        n = len(coeffs) - 1
        diff = coeffs
        for _ in range(r):
            diff = diff[1:] - diff[:-1]
        falling = math.perm(n, r)
        return ((diff @ self.basis(n - r, points)) >> FRAC) * falling


def node_samples(fn, n: int) -> list[float]:
    """f(i/n) at the correctly rounded nodes, as the library samples them."""
    return [float(fn(i / n)) for i in range(n + 1)]


def quadrature_samples(fn, n: int, a: float, b: float) -> np.ndarray:
    """Fixed-point samples (b - a) g(node_i), node_i = a + (b - a) i/n rounded once."""
    fa, fb = Fraction(a), Fraction(b)
    width = fb - fa
    return np.array(
        [fx(width * Fraction(float(fn(float(fa + width * Fraction(i, n)))))) for i in range(n + 1)],
        dtype=object,
    )


# ---------------------------------------------------------------- q-Bernstein


class QOracle:
    """q-Bernstein operator in fixed point for a double q."""

    def __init__(self, q: float, n: int):
        self.n = n
        self.q = fx(q)
        self.qp = [ONE]
        for _ in range(n):
            self.qp.append(self.qp[-1] * self.q >> FRAC)
        if q == 1.0:
            self.nodes = [(i << FRAC) // n for i in range(n + 1)]
        else:
            den = ONE - self.qp[n]
            self.nodes = [((ONE - self.qp[i]) << FRAC) // den for i in range(n + 1)]
        self.nodes[0], self.nodes[n] = 0, ONE
        gb = [ONE]
        for i in range(1, n + 1):
            if q == 1.0:
                gb.append(math.comb(n, i) << FRAC)
            else:
                gb.append(gb[-1] * (ONE - self.qp[n - i + 1]) // (ONE - self.qp[i]))
        self.gauss_binom = gb

    def node_floats(self) -> list[float]:
        return [to_float(v) for v in self.nodes]

    def basis(self, points_fx: np.ndarray) -> np.ndarray:
        """Table [i, p] = [n, i]_q t^i prod_{s < n-i} (1 - q^s t)."""
        n = self.n
        tpow = [np.full(len(points_fx), ONE, dtype=object)]
        prod = [np.full(len(points_fx), ONE, dtype=object)]
        for m in range(n):
            tpow.append((tpow[-1] * points_fx) >> FRAC)
            prod.append((prod[-1] * (ONE - ((points_fx * self.qp[m]) >> FRAC))) >> FRAC)
        return np.array(
            [(((tpow[i] * prod[n - i]) >> FRAC) * self.gauss_binom[i]) >> FRAC for i in range(n + 1)],
            dtype=object,
        )

    def coefficients(self, node_values: np.ndarray, k: int) -> np.ndarray:
        f1 = fx_array(node_values)
        op = self.basis(np.array(self.nodes, dtype=object))
        f = f1
        for _ in range(k - 1):
            f = f - _vecmat(f, op) + f1
        return f

    def evaluate(self, coeffs: np.ndarray, points) -> np.ndarray:
        pts = np.array([fx(float(t)) for t in points], dtype=object)
        return (coeffs @ self.basis(pts)) >> FRAC


# ------------------------------------------------------------- Szasz-Mirakyan


def poisson_weights(n: int, x: float, size: int) -> np.ndarray:
    """Poisson pmf with mean n*x at indices 0..size-1, in extended precision.

    n*x is exact in np.longdouble (53 + 6 bits). The weight at the mode is
    computed by mpmath at 40 digits; the exact ratios w[i+1]/w[i] = mean/(i+1)
    extend it in both directions.
    """
    out = np.zeros(size, dtype=np.longdouble)
    mean = np.longdouble(n) * np.longdouble(x)
    if mean == 0:
        out[0] = 1
        return out
    mode = min(int(mean), size - 1)
    with mpmath.workdps(40):
        mu = mpmath.mpf(n) * mpmath.mpf(x)
        w = mpmath.exp(-mu + mode * mpmath.log(mu) - mpmath.loggamma(mode + 1))
        hi = float(w)
        lo = float(w - hi)
    out[mode] = np.longdouble(hi) + np.longdouble(lo)
    idx = np.arange(size, dtype=np.longdouble)
    out[mode + 1 :] = out[mode] * np.cumprod(mean / idx[mode + 1 :])
    if mode > 0:
        out[:mode] = (out[mode] * np.cumprod(idx[1 : mode + 1][::-1] / mean))[::-1]
    return out


class SzaszOracle:
    """Untruncated Szasz-Mirakyan iterates, represented on nodes 0..M' where the
    oracle picks M' so that mass beyond it is below ~1e-30 after k sweeps."""

    def __init__(self):
        self._op = np.ones((1, 1), dtype=np.longdouble)

    @staticmethod
    def node_count(mean_max: float, k: int) -> int:
        return int(math.ceil(mean_max + 12.0 * math.sqrt((k + 1) * (mean_max + 1.0)) + 60.0))

    def _operator(self, size: int) -> np.ndarray:
        """op[i, j] = e^-j j^i / i!, the Poisson weights at node j/n, whose mean
        is exactly j whatever n is. Truncating rows does not change the kept
        entries, so one matrix, grown on demand, serves every job."""
        if len(self._op) < size:
            grown = max(size, 2 * len(self._op))
            self._op = np.stack([poisson_weights(j, 1.0, grown) for j in range(grown)], axis=1)
        return self._op[:size, :size]

    def values(self, fn, n: int, x_max: float, k: int, points) -> np.ndarray:
        size = self.node_count(n * x_max, k) + 1
        f1 = np.array([float(fn(i / n)) for i in range(size)], dtype=np.longdouble)
        f = f1
        if k > 1:
            op = self._operator(size)
            for _ in range(k - 1):
                f = f - f @ op + f1
        return np.array([f @ poisson_weights(n, float(x), size) for x in points])
