"""The oracle's fast paths against direct mpmath evaluation on small cases.

    python3 -m pytest perfbench/test_oracle.py -q
"""

import math

import mpmath
import numpy as np

import oracle as O


def _mp(v: int):
    return mpmath.mpf(v) / O.ONE


def _bernstein(n):
    """Exact operator matrix as mpmath numbers, B[i][j] = B_{n,i}(j/n)."""
    return [[mpmath.mpf(math.comb(n, i) * j**i * (n - j) ** (n - i)) / n**n
             for j in range(n + 1)] for i in range(n + 1)]


def test_finite_k_matches_the_recurrence():
    n, k = 6, 37
    samples = [math.sin(3.0 * i / n) for i in range(n + 1)]
    with mpmath.workdps(80):
        b = _bernstein(n)
        f1 = [mpmath.mpf(v) for v in samples]
        f = list(f1)
        for _ in range(k - 1):
            fb = [mpmath.fsum(f[i] * b[i][j] for i in range(n + 1)) for j in range(n + 1)]
            f = [f[j] - fb[j] + f1[j] for j in range(n + 1)]
        got = O.BernsteinOracle().coefficients(samples, k)
        assert max(abs(_mp(g) - e) for g, e in zip(got, f)) < mpmath.mpf(10) ** -50


def test_limit_interpolates_the_samples():
    n = 14
    samples = [abs(i / n - 0.5) for i in range(n + 1)]
    with mpmath.workdps(80):
        b = _bernstein(n)
        c = [_mp(v) for v in O.BernsteinOracle().coefficients(samples, math.inf)]
        for j in range(n + 1):
            value = mpmath.fsum(c[i] * b[i][j] for i in range(n + 1))
            assert abs(value - samples[j]) < mpmath.mpf(10) ** -45


def test_q_basis_matches_the_product_form():
    q, n = 1.2, 10
    points = [0.0, 0.3, 0.77, 1.0]
    table = O.QOracle(q, n).basis(np.array([O.fx(t) for t in points], dtype=object))
    with mpmath.workdps(80):
        qm = mpmath.mpf(q)
        for p, t in enumerate(points):
            for i in range(n + 1):
                gauss = mpmath.fprod((1 - qm ** (n - j)) / (1 - qm ** (j + 1)) for j in range(i))
                expected = gauss * mpmath.mpf(t) ** i * mpmath.fprod(1 - qm**s * t for s in range(n - i))
                assert abs(_mp(table[i, p]) - expected) < mpmath.mpf(10) ** -45


def test_poisson_weights_match_the_pmf():
    n, x, size = 7, 3.3, 90
    got = O.poisson_weights(n, x, size)
    with mpmath.workdps(50):
        mu = mpmath.mpf(n) * mpmath.mpf(x)
        for i in range(size):
            expected = mpmath.exp(-mu) * mu**i / mpmath.factorial(i)
            assert abs(mpmath.mpf(str(got[i])) - expected) / expected < 1e-17
