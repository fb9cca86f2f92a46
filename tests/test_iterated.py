"""Tests for the iteration recurrence, the closed form and the k->inf limit."""

import math

import numpy as np
import pytest

from iterbern import (
    INFINITY,
    ConditioningError,
    UniformSamples,
    bernstein_apply,
    bernstein_matrix,
    binomial,
    coefficients,
    derivative_eval,
    error_estimate,
    eval_iterated,
    iterate_coefficients,
    iterated_basis,
    limit_coefficients,
)

T2_N2 = UniformSamples(2, np.array([0.0, 0.25, 1.0]))


def closed_form_coefficients(samples, k):
    """Alternating binomial sum over powers of the operator matrix.

    Independent route kept deliberately naive: explicit matrix powers.
    """
    b = bernstein_matrix(samples.n).entries
    acc = np.zeros(samples.n + 1)
    power = np.eye(samples.n + 1)
    for i in range(1, k + 1):
        acc += binomial(k, i) * (-1.0) ** (i - 1) * (samples.values @ power)
        power = power @ b
    return acc


class TestIterateCoefficients:
    def test_k1_is_samples(self):
        s = UniformSamples(4, np.array([1.0, -2.0, 0.5, 3.0, 0.0]))
        assert iterate_coefficients(s, 1).coeffs == pytest.approx(s.values)

    def test_linear_fixed_point(self):
        s = UniformSamples(7, 1.5 - 0.75 * np.arange(8) / 7)
        for k in (2, 5, 20):
            assert iterate_coefficients(s, k).coeffs == pytest.approx(
                s.values, abs=1e-12
            )

    def test_hand_computed_second_order(self):
        assert iterate_coefficients(T2_N2, 2).coeffs == pytest.approx(
            [0.0, 0.125, 1.0], abs=1e-15
        )

    def test_k0_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            iterate_coefficients(T2_N2, 0)

    def test_k_above_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            iterate_coefficients(T2_N2, 10**6 + 1)

    def test_order_commutes_with_scaling(self):
        # The recurrence is linear in the samples and runs k - 1 steps
        # whatever their scale, so tiny samples match their rescaled copy.
        v = np.abs(np.arange(11) / 10 - 0.5)
        big = iterate_coefficients(UniformSamples(10, v), 100).coeffs
        small = iterate_coefficients(UniformSamples(10, 1e-16 * v), 100).coeffs
        np.testing.assert_allclose(small / 1e-16, big, rtol=1e-12)

    @pytest.mark.parametrize("n, k", [(5, 1000), (6, 3000)])
    def test_exact_order_matches_high_precision_recurrence(self, n, k):
        # Orders far past where the steps stop moving the coefficients in
        # double precision: order k is still k - 1 full steps, within 1e-14
        # of the same recurrence run at 40 digits.
        mpmath = pytest.importorskip("mpmath")
        samples = np.sin(3 * np.arange(n + 1) / n) + 0.3
        with mpmath.workdps(40):
            nodes = [mpmath.mpf(j) / n for j in range(n + 1)]
            b = [[mpmath.binomial(n, i) * x**i * (1 - x) ** (n - i) for x in nodes]
                 for i in range(n + 1)]
            f1 = [mpmath.mpf(v) for v in samples]
            f = list(f1)
            for _ in range(k - 1):
                fb = [mpmath.fsum(f[i] * b[i][j] for i in range(n + 1)) for j in range(n + 1)]
                f = [f[j] - fb[j] + f1[j] for j in range(n + 1)]
            ref = np.array([float(v) for v in f])
        got = iterate_coefficients(UniformSamples(n, samples), k).coeffs
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-14

    def test_recurrence_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 10):
            s = UniformSamples(n, rng.normal(size=n + 1))
            for k in range(1, 7):
                got = iterate_coefficients(s, k).coeffs
                ref = closed_form_coefficients(s, k)
                scale = max(1.0, np.max(np.abs(ref)))
                assert np.max(np.abs(got - ref)) / scale < 1e-10

    def test_second_order_operator_identity(self):
        # B^(2) f = 2 B f - B(B f) pointwise.
        rng = np.random.default_rng(7)
        n = 8
        s = UniformSamples(n, rng.normal(size=n + 1))
        b = bernstein_matrix(n).entries
        s_once = UniformSamples(n, s.values @ b)
        c2 = iterate_coefficients(s, 2)
        for t in np.linspace(0, 1, 21):
            ref = 2.0 * bernstein_apply(s, t) - bernstein_apply(s_once, t)
            assert eval_iterated(c2, t) == pytest.approx(ref, abs=1e-12)


class TestLimitCoefficients:
    def test_linear_unchanged(self):
        s = UniformSamples(6, -1.0 + 2.0 * np.arange(7) / 6)
        c = limit_coefficients(s)
        assert c.k == INFINITY
        assert c.coeffs == pytest.approx(s.values, abs=1e-11)

    def test_hand_solved_quadratic(self):
        c = limit_coefficients(T2_N2)
        assert c.coeffs == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
        # the limiting approximant is t^2 exactly
        for t in np.linspace(0, 1, 11):
            assert eval_iterated(c, t) == pytest.approx(t * t, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 8, 15])
    def test_node_interpolation(self, n):
        rng = np.random.default_rng(n)
        s = UniformSamples(n, rng.normal(size=n + 1))
        c = limit_coefficients(s)
        cond = np.linalg.cond(bernstein_matrix(n).entries, 1)
        for i in range(n + 1):
            assert abs(eval_iterated(c, i / n) - s.values[i]) < 1e-8 * cond

    def test_residual_reported(self):
        c = limit_coefficients(T2_N2)
        assert c.residual is not None and c.residual < 1e-12

    def test_cap_enforced_and_forceable(self):
        n = 31
        rng = np.random.default_rng(0)
        s = UniformSamples(n, rng.normal(size=n + 1))
        with pytest.raises(ConditioningError, match="cap"):
            limit_coefficients(s)
        c = limit_coefficients(s, force=True)
        assert np.all(np.isfinite(c.coeffs))


class TestEvalIterated:
    def test_endpoint_values_all_orders(self):
        rng = np.random.default_rng(3)
        s = UniformSamples(9, rng.normal(size=10))
        for k in [1, 2, 5, 10, INFINITY]:
            c = coefficients(s, k)
            assert eval_iterated(c, 0.0) == pytest.approx(s.values[0], abs=1e-12)
            assert eval_iterated(c, 1.0) == pytest.approx(s.values[-1], abs=1e-12)

    def test_linear(self):
        s = UniformSamples(5, 0.5 + 2.0 * np.arange(6) / 5)
        c = iterate_coefficients(s, 4)
        for t in np.linspace(0, 1, 9):
            assert eval_iterated(c, t) == pytest.approx(0.5 + 2.0 * t, abs=1e-12)

    def test_hand_value(self):
        c = iterate_coefficients(T2_N2, 2)
        assert eval_iterated(c, 0.5) == pytest.approx(0.3125)

    @pytest.mark.parametrize("k", [1, 3, INFINITY])
    def test_array_matches_pointwise(self, k):
        s = UniformSamples.from_function(lambda t: math.sin(2 * math.pi * t), 20)
        c = coefficients(s, k)
        t = np.linspace(0, 1, 101)
        want = [eval_iterated(c, x) for x in t]
        got = eval_iterated(c, t)
        assert got.shape == t.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))


class TestIteratedBasis:
    def test_k1_is_classical_basis(self):
        from iterbern import basis_eval

        for i in range(5):
            for t in (0.1, 0.4, 0.9):
                assert iterated_basis(4, i, 1, t) == pytest.approx(
                    basis_eval(4, i, t), abs=1e-14
                )

    def test_indicator_at_endpoints(self):
        n = 6
        for k in (1, 2, 4):
            for i in range(n + 1):
                assert iterated_basis(n, i, k, 0.0) == (1.0 if i == 0 else 0.0)
                assert iterated_basis(n, i, k, 1.0) == (1.0 if i == n else 0.0)

    def test_partition_of_unity(self):
        n, k = 7, 3
        for t in np.linspace(0, 1, 11):
            total = sum(iterated_basis(n, i, k, t) for i in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestErrorEstimate:
    def test_linear_zero(self):
        s = UniformSamples(8, np.arange(9) / 8)
        assert abs(error_estimate(s, 3, 0.37)) < 1e-12

    def test_endpoints_zero(self):
        rng = np.random.default_rng(11)
        s = UniformSamples(10, rng.normal(size=11))
        for t in (0.0, 1.0):
            assert abs(error_estimate(s, 2, t)) < 1e-12

    def test_tracks_true_error_within_factor_two(self):
        f = lambda t: math.sin(2 * math.pi * t)
        s = UniformSamples.from_function(f, 30)
        est = error_estimate(s, 1, 0.25)
        true = eval_iterated(iterate_coefficients(s, 1), 0.25) - f(0.25)
        assert est * true > 0
        assert 0.5 < est / true < 2.0


class TestConvergenceOfIterates:
    def test_geometric_decay_to_limit(self):
        # Smooth (polynomial) samples: the slowest active mode contracts
        # fast, so the k=400 iterate is already at the rounding floor.
        n = 12
        s = UniformSamples(n, (np.arange(n + 1) / n) ** 4)
        target = limit_coefficients(s).coeffs
        dists = [
            np.max(np.abs(iterate_coefficients(s, k).coeffs - target))
            for k in (2, 5, 10, 25, 50, 100, 400)
        ]
        assert all(a >= b - 1e-14 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-8


class TestMonotonicityPreservation:
    def test_strictly_increasing_preserved(self):
        n = 20
        u = np.arange(n + 1) / n
        s = UniformSamples(n, u**3 + u)
        for k in (1, 2, 3):
            derivs = [derivative_eval(s, k, 1, t) for t in np.linspace(0, 1, 1001)]
            assert min(derivs) > 0.0
