"""Finite orders k against the same recurrence on the exact rational B.

Each check runs the library's double-precision recurrence and the oracle's on
the same double samples, so any difference is rounding inside the library.
"""

import numpy as np
import pytest

from iterbern import UniformSamples, bernstein_matrix, iterate_coefficients
from iterbern.functions import registry_lookup, registry_names

ORDERS = (2, 5, 20, 50)


def relative_error(got, ref) -> float:
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("name", registry_names())
def test_small_degrees_match_exact_rationals(name, exact_orders):
    fn = registry_lookup(name)
    for n in range(1, 9):
        samples = UniformSamples.from_function(fn, n)
        exact = exact_orders(samples.values.tolist(), ORDERS)
        for k in ORDERS:
            got = iterate_coefficients(samples, k).coeffs
            assert relative_error(got, [float(v) for v in exact[k]]) < 1e-13, (n, k)


def test_exact_matrix_is_the_library_matrix(exact_b):
    for n in (1, 5, 8):
        exact = np.array([[float(v) for v in row] for row in exact_b(n)])
        np.testing.assert_allclose(bernstein_matrix(n).entries, exact, rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["sin2pi", "abshalf", "expx"])
def test_long_run_matches_40_digits(name, exact_b):
    # n = 12, k = 2000: rounding gathers over 1999 steps and stays below 1e-12.
    mpmath = pytest.importorskip("mpmath")
    n, k = 12, 2000
    samples = UniformSamples.from_function(registry_lookup(name), n)
    with mpmath.workdps(40):
        columns = [[mpmath.mpf(v.numerator) / v.denominator for v in col]
                   for col in zip(*exact_b(n))]
        f1 = [mpmath.mpf(v) for v in samples.values]
        f = list(f1)
        for _ in range(k - 1):
            f = [f[j] - mpmath.fdot(f, columns[j]) + f1[j] for j in range(n + 1)]
        ref = [float(v) for v in f]
    assert relative_error(iterate_coefficients(samples, k).coeffs, ref) < 1e-12
