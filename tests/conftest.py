"""Oracles shared by the test modules, handed out as fixtures."""

import math
from fractions import Fraction

import pytest


def exact_bernstein_matrix(n: int) -> list[list[Fraction]]:
    """The Bernstein node matrix in exact rationals: entry [i][j] is
    B_{n,i}(j/n) = C(n, i) j^i (n - j)^(n - i) / n^n (0**0 counts as 1)."""
    return [[Fraction(math.comb(n, i) * j**i * (n - j) ** (n - i), n**n) for j in range(n + 1)]
            for i in range(n + 1)]


def exact_iterates(samples, ks) -> dict:
    """{k: F(k)} for each order k in ks, as Fractions: the recurrence
    F(k+1) = F(k) - F(k) B + F(1) run exactly on the exact B, with the double
    samples taken as exact."""
    n = len(samples) - 1
    b = exact_bernstein_matrix(n)
    f1 = [Fraction(v) for v in samples]
    f, out = list(f1), {}
    for k in range(1, max(ks) + 1):
        if k in ks:
            out[k] = f
        if k < max(ks):
            f = [f[j] - sum(f[i] * b[i][j] for i in range(n + 1)) + f1[j] for j in range(n + 1)]
    return out


@pytest.fixture
def exact_b():
    """exact_bernstein_matrix, the exact rational Bernstein node matrix builder."""
    return exact_bernstein_matrix


@pytest.fixture
def exact_orders():
    """exact_iterates, the order-k recurrence in exact rationals."""
    return exact_iterates
