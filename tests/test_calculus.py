"""Tests for derivatives, basis integrals and the quadrature rule."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from iterbern import (
    INFINITY,
    UniformSamples,
    basis_eval,
    basis_integral,
    basis_integral_vector,
    coefficients,
    derivative_eval,
    eval_iterated,
    forward_difference,
    integral_eval,
    iterate_coefficients,
    limit_coefficients,
    quadrature,
)
from iterbern.calculus import _derivative_coefficients


class TestForwardDifference:
    def test_order_zero_identity(self):
        vals = np.array([3.0, 1.0, 4.0])
        assert forward_difference(vals, 0, 1) == 1.0

    def test_quadratic_second_difference_constant(self):
        n = 8
        vals = (np.arange(n + 1) / n) ** 2
        for i in range(n - 1):
            assert forward_difference(vals, 2, i) == pytest.approx(2 / n**2, abs=1e-15)

    def test_cubic_first_difference(self):
        vals = (np.arange(5) / 4) ** 3
        assert forward_difference(vals, 1, 0) == pytest.approx(0.015625)

    def test_window_overflow(self):
        with pytest.raises(ValueError, match="window"):
            forward_difference(np.zeros(4), 2, 2)

    def test_polynomial_below_order_vanishes(self):
        u = np.arange(11) / 10
        vals = 2.0 + 3.0 * u  # degree 1, r = 2 annihilates it
        for i in range(9):
            assert abs(forward_difference(vals, 2, i)) < 1e-12


class TestDerivativeEval:
    def test_linear_slope(self):
        s = UniformSamples(10, 0.4 + 1.7 * np.arange(11) / 10)
        for k in (1, 2, 4):
            for t in (0.0, 0.33, 1.0):
                assert derivative_eval(s, k, 1, t) == pytest.approx(1.7, abs=1e-11)

    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_quadratic_midpoint_slope(self, n):
        # d/dt of t^2 + t(1-t)/n at t = 0.5 is exactly 1.
        s = UniformSamples(n, (np.arange(n + 1) / n) ** 2)
        assert derivative_eval(s, 1, 1, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_second_derivative(self):
        s = UniformSamples(10, (np.arange(11) / 10) ** 2)
        for t in (0.0, 0.4, 1.0):
            assert derivative_eval(s, 1, 2, t) == pytest.approx(1.8, abs=1e-11)

    def test_r_zero_forwards_to_eval(self):
        s = UniformSamples(6, np.sin(np.arange(7)))
        c = iterate_coefficients(s, 3)
        assert derivative_eval(s, 3, 0, 0.62) == pytest.approx(
            eval_iterated(c, 0.62), abs=1e-14
        )

    def test_r_equal_to_degree(self):
        # t^2 sampled at n = 2: the second derivative of B_2 f is 1.
        s = UniformSamples(2, np.array([0.0, 0.25, 1.0]))
        for t in (0.0, 0.3, 1.0):
            assert derivative_eval(s, 1, 2, t) == 1.0

    @pytest.mark.parametrize("k,r", [(1, 1), (3, 2), (INFINITY, 1)])
    def test_array_matches_pointwise(self, k, r):
        s = UniformSamples.from_function(lambda t: math.sin(2 * math.pi * t), 12)
        t = np.linspace(0, 1, 41)
        want = [derivative_eval(s, k, r, x) for x in t]
        got = derivative_eval(s, k, r, t)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))

    def test_r_above_degree(self):
        with pytest.raises(ValueError, match="exceeds"):
            derivative_eval(UniformSamples(3, np.zeros(4)), 1, 4, 0.5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2])
    def test_agrees_with_central_differences(self, k, r):
        f = lambda t: math.sin(2 * math.pi * t)
        s = UniformSamples.from_function(f, 30)
        c = iterate_coefficients(s, k)
        h = 1e-5
        for t in np.linspace(0.05, 0.95, 10):
            if r == 1:
                fd = (eval_iterated(c, t + h) - eval_iterated(c, t - h)) / (2 * h)
            else:
                fd = (
                    eval_iterated(c, t + h)
                    - 2 * eval_iterated(c, t)
                    + eval_iterated(c, t - h)
                ) / h**2
            got = derivative_eval(s, k, r, t)
            assert abs(got - fd) / max(1.0, abs(fd)) < 1e-5

    def test_high_order_iterates_agree(self):
        # The iterates converge in k, so their derivatives must agree at
        # orders where C(k, k/2) is far above 1/eps.
        f = lambda t: math.sin(2 * math.pi * t)
        s = UniformSamples.from_function(f, 20)
        values = [derivative_eval(s, k, 1, 0.37) for k in (30, 60, 100)]
        assert max(values) - min(values) < 1e-3
        assert values == pytest.approx([-4.3012] * 3, abs=1e-3)

    def test_derivative_convergence_in_n(self):
        # max grid error of the first derivative shrinks from n=40 to n=160
        f = lambda t: math.sin(2 * math.pi * t)
        df = lambda t: 2 * math.pi * math.cos(2 * math.pi * t)

        def max_err(n):
            s = UniformSamples.from_function(f, n)
            return max(
                abs(derivative_eval(s, 2, 1, t) - df(t)) for t in np.linspace(0, 1, 101)
            )

        assert max_err(160) < max_err(40)


class TestDerivativeCoefficients:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_exact_scaled_differences(self, n):
        # n!/(n-r)! Delta^r c in exact rationals; the error of r rounded
        # difference steps is a few ulps of n!/(n-r)! sum_j C(r, j) |c_(i+j)|.
        c = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
        for r in range(n + 1):
            got = _derivative_coefficients(c, r)
            assert got.shape == (n + 1 - r,)
            for i in range(n + 1 - r):
                window = [Fraction(v) for v in c[i : i + r + 1]]
                exact = sum((-1) ** (r - j) * math.comb(r, j) * v for j, v in enumerate(window))
                bound = sum(math.comb(r, j) * abs(v) for j, v in enumerate(window))
                err = abs(Fraction(got[i]) - math.perm(n, r) * exact)
                assert err <= 4 * 2.0**-52 * math.perm(n, r) * bound

    def test_past_float_range_raises(self):
        # At n = 1100 the coefficients of the 103rd derivative of sin 2 pi t
        # leave the float range.
        s = UniformSamples.from_function(lambda t: math.sin(2 * math.pi * t), 1100)
        with pytest.raises(FloatingPointError, match="overflow"):
            derivative_eval(s, 1, 103, 0.5)


class TestBasisIntegral:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_full_integral(self, n):
        for i in range(n + 1):
            assert basis_integral(n, i, 1.0) == pytest.approx(1 / (n + 1), abs=1e-14)

    def test_zero_at_origin(self):
        assert basis_integral(5, 3, 0.0) == 0.0

    def test_linear_basis_half(self):
        assert basis_integral(1, 0, 0.5) == pytest.approx(0.375)

    @pytest.mark.parametrize("n", [2, 7, 14, 20])
    def test_adaptive_quadrature_oracle(self, n):
        for i in range(n + 1):
            for x in np.arange(0.1, 1.0, 0.2):
                ref, _ = quad(lambda t: basis_eval(n, i, t), 0.0, x)
                assert basis_integral(n, i, x) == pytest.approx(ref, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="outside"):
            basis_integral(3, 0, 1.2)

    def test_array_matches_pointwise(self):
        x = np.linspace(0, 1, 23)
        stacked = np.column_stack([basis_integral_vector(9, v) for v in x])
        assert np.array_equal(basis_integral_vector(9, x), stacked)


class TestIntegralEval:
    def test_full_range_is_coefficient_mean(self):
        rng = np.random.default_rng(5)
        s = UniformSamples(7, rng.normal(size=8))
        c = iterate_coefficients(s, 3)
        assert integral_eval(c, 1.0) == pytest.approx(np.sum(c.coeffs) / 8, abs=1e-13)

    def test_linear_exact(self):
        a, b = 0.7, -1.3
        s = UniformSamples(9, a + b * np.arange(10) / 9)
        for k in (1, 4):
            c = iterate_coefficients(s, k)
            for x in (0.2, 0.55, 1.0):
                assert integral_eval(c, x) == pytest.approx(
                    a * x + b * x**2 / 2, abs=1e-12
                )

    def test_zero_at_origin(self):
        s = UniformSamples(4, np.ones(5))
        assert integral_eval(iterate_coefficients(s, 1), 0.0) == 0.0

    def test_fundamental_theorem(self):
        f = lambda t: math.exp(t)
        s = UniformSamples.from_function(f, 15)
        c = iterate_coefficients(s, 2)
        h = 1e-6
        for x in np.linspace(0.1, 0.9, 9):
            deriv = (integral_eval(c, x + h) - integral_eval(c, x - h)) / (2 * h)
            assert deriv == pytest.approx(eval_iterated(c, x), abs=1e-6)

    @pytest.mark.parametrize("k", [1, 4, INFINITY])
    def test_array_matches_pointwise(self, k):
        c = coefficients(UniformSamples.from_function(math.exp, 15), k)
        x = np.linspace(0, 1, 57)
        want = [integral_eval(c, v) for v in x]
        got = integral_eval(c, x)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))


class TestQuadrature:
    def test_constant(self):
        for k in (1, 3, INFINITY):
            assert quadrature(lambda x: 4.5, -2.0, 3.0, 6, k) == pytest.approx(
                22.5, abs=1e-12
            )

    def test_linear_exact_every_order(self):
        g = lambda x: 2.0 * x - 1.0
        for n in (1, 5, 12):
            for k in (1, 2, 7, INFINITY):
                assert quadrature(g, 0.5, 2.5, n, k) == pytest.approx(4.0, abs=1e-12)

    def test_table1_sin_entry(self):
        g = lambda x: math.pi * math.sin(math.pi * x)
        assert quadrature(g, 0.0, 1.0, 5, 1) == pytest.approx(1.611471, abs=5e-7)

    def test_table2_exp_entry(self):
        assert quadrature(math.exp, 0.0, 1.0, 10, 5) == pytest.approx(
            1.718285, abs=5e-7
        )

    def test_nonfinite_sample_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            quadrature(lambda x: 1.0 / x, 0.0, 1.0, 4, 1)

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="a < b"):
            quadrature(math.exp, 1.0, 1.0, 4, 1)

    def test_infinite_width_rejected(self):
        # Both ends are finite, but b - a overflows.
        with pytest.raises(ValueError, match="need finite a < b"):
            quadrature(math.exp, -1e308, 1e308, 4, 1)

    @pytest.mark.parametrize("g", [lambda x: 1.0, lambda x: x], ids=["sum", "scale"])
    def test_overflow_raises(self, g):
        # width * g(x) or the sum of the coefficients leaves the float range.
        with pytest.raises(FloatingPointError, match="overflow"):
            quadrature(g, 0.0, 1e308, 4, 1)

    def test_degree_checked_before_sampling(self):
        def no_sample(x):
            raise AssertionError("sampled at degree 0")

        with pytest.raises(ValueError, match="positive, got n=0"):
            quadrature(no_sample, 0.0, 1.0, 0, 1)

    def test_fractional_order_rejected(self):
        with pytest.raises(ValueError, match="k=2.5"):
            quadrature(math.exp, 0.0, 1.0, 6, 2.5)
        with pytest.raises(ValueError, match="k=2.5"):
            derivative_eval(UniformSamples(6, np.arange(7) / 6), 2.5, 1, 0.3)

    def test_limit_mode_uses_solve(self):
        # infinity on a smooth integrand lands much closer than k=1
        exact = math.e - 1.0
        err_inf = abs(quadrature(math.exp, 0.0, 1.0, 10, INFINITY) - exact)
        err_1 = abs(quadrature(math.exp, 0.0, 1.0, 10, 1) - exact)
        assert err_inf < 1e-3 * err_1
