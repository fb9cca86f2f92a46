"""Tests for the Bernstein basis and the classical operator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterbern import (
    UniformSamples,
    basis_eval,
    basis_vector,
    bernstein_apply,
    bernstein_matrix,
    binomial,
)


def exact_basis(n, i, t: Fraction) -> Fraction:
    """Raw binomial-formula oracle in exact rational arithmetic."""
    return math.comb(n, i) * t**i * (1 - t) ** (n - i)


class TestBinomial:
    def test_small_exact(self):
        assert binomial(5, 2) == 10

    def test_boundary(self):
        assert binomial(7, 0) == 1
        assert binomial(7, 7) == 1

    def test_pascal_triangle_oracle(self):
        row = [1]
        for n in range(1, 31):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
            for i, ref in enumerate(row):
                assert binomial(n, i) == ref
        assert binomial(30, 15) == 155117520

    def test_log_space_beyond_cap(self):
        # C(70, 35) known exactly; log-space path should hit ~1e-12 relative.
        exact = math.comb(70, 35)
        assert binomial(70, 35) == pytest.approx(exact, rel=1e-12)

    def test_i_greater_than_n_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            binomial(3, 4)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestBasisEval:
    def test_linear_basis(self):
        assert basis_eval(1, 0, 0.5) == pytest.approx(0.5)

    def test_endpoints_exact(self):
        for n in (1, 5, 40):
            assert basis_eval(n, 0, 0.0) == 1.0
            assert basis_eval(n, n, 1.0) == 1.0
            for i in range(1, n + 1):
                assert basis_eval(n, i, 0.0) == 0.0

    def test_exact_rational_oracle(self):
        assert basis_eval(5, 2, 0.3) == pytest.approx(
            float(exact_basis(5, 2, Fraction(3, 10))), abs=1e-15
        )

    @pytest.mark.parametrize("n", [3, 8, 17])
    def test_matches_raw_formula(self, n):
        for i in range(n + 1):
            for num in range(11):
                t = Fraction(num, 10)
                assert basis_eval(n, i, float(t)) == pytest.approx(
                    float(exact_basis(n, i, t)), abs=1e-14
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="outside"):
            basis_eval(3, 0, 1.5)
        with pytest.raises(ValueError, match="index"):
            basis_eval(3, 4, 0.5)


class TestBasisVector:
    def test_midpoint_symmetric(self):
        assert basis_vector(2, 0.5) == pytest.approx([0.25, 0.5, 0.25])

    def test_endpoint_unit_vector(self):
        v = basis_vector(6, 0.0)
        assert v[0] == 1.0 and not v[1:].any()

    def test_quarter_point_exact_expansion(self):
        assert basis_vector(3, 0.25) == pytest.approx(
            [0.421875, 0.421875, 0.140625, 0.015625], abs=1e-15
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=50),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_partition_of_unity(self, n, t):
        assert abs(basis_vector(n, t).sum() - 1.0) < 1e-13

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_symmetry(self, n, t):
        v = basis_vector(n, t)
        w = basis_vector(n, 1.0 - t)
        assert np.max(np.abs(v - w[::-1])) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 7, 30])
    def test_array_matches_pointwise(self, n):
        t = np.concatenate([np.linspace(0, 1, 37), np.random.default_rng(1).random(20)])
        stacked = np.column_stack([basis_vector(n, x) for x in t])
        assert np.array_equal(basis_vector(n, t), stacked)

    def test_array_domain_error_names_point(self):
        with pytest.raises(ValueError, match="t=1.5 outside"):
            basis_vector(3, np.array([0.0, 1.5, 0.2]))


class TestUniformSamples:
    def test_length_checked(self):
        with pytest.raises(ValueError, match="expected 4"):
            UniformSamples(3, np.zeros(3))

    def test_finite_checked(self):
        with pytest.raises(ValueError, match="finite"):
            UniformSamples(2, np.array([0.0, np.nan, 1.0]))

    def test_from_function(self):
        s = UniformSamples.from_function(lambda t: t * t, 4)
        assert s.values == pytest.approx([0, 1 / 16, 1 / 4, 9 / 16, 1])

    def test_from_function_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="degree must be positive"):
            UniformSamples.from_function(math.exp, 0)

    def test_from_function_names_nonfinite_node(self):
        with pytest.raises(ValueError, match="not finite at node x=0.0"):
            UniformSamples.from_function(lambda t: 1.0 / t, 4)


class TestBernsteinApply:
    def test_constant_preserved(self):
        s = UniformSamples(6, np.full(7, 3.25))
        for t in np.linspace(0, 1, 13):
            assert bernstein_apply(s, t) == pytest.approx(3.25, abs=1e-14)

    def test_linear_preserved(self):
        s = UniformSamples(9, 2.0 - 3.0 * np.arange(10) / 9)
        for t in np.linspace(0, 1, 13):
            assert bernstein_apply(s, t) == pytest.approx(2.0 - 3.0 * t, abs=1e-13)

    def test_quadratic_closed_form(self):
        # B_n applied to t^2 is t^2 + t(1-t)/n.
        s = UniformSamples(2, (np.arange(3) / 2) ** 2)
        assert bernstein_apply(s, 0.5) == pytest.approx(0.375)


class TestBernsteinMatrix:
    def test_n1_identity(self):
        assert bernstein_matrix(1).entries == pytest.approx(np.eye(2))

    def test_n2_entries(self):
        expected = np.array([[1, 0.25, 0], [0, 0.5, 0], [0, 0.25, 1]])
        assert bernstein_matrix(2).entries == pytest.approx(expected)

    @pytest.mark.parametrize("n", [1, 4, 12, 25])
    def test_column_sums_one(self, n):
        b = bernstein_matrix(n).entries
        assert np.max(np.abs(b.sum(axis=0) - 1.0)) < 1e-14
        assert b.min() >= 0.0 and b.max() <= 1.0

    @pytest.mark.parametrize("n", [2, 10, 30])
    def test_fixed_left_vectors(self, n):
        b = bernstein_matrix(n).entries
        ones = np.ones(n + 1)
        u = np.arange(n + 1) / n
        assert np.max(np.abs(ones @ b - ones)) < 1e-12
        assert np.max(np.abs(u @ b - u)) < 1e-12

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_eigenvalues_in_unit_interval(self, n):
        eig = np.sort(np.linalg.eigvals(bernstein_matrix(n).entries).real)
        assert eig[0] > 0.0
        assert eig[-1] <= 1.0 + 1e-10
        assert np.sum(np.abs(eig - 1.0) < 1e-8) == 2

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_matches_column_by_column(self, n):
        columns = np.column_stack([basis_vector(n, j / n) for j in range(n + 1)])
        assert np.array_equal(bernstein_matrix(n).entries, columns)

    def test_degenerate_degree(self):
        with pytest.raises(ValueError, match="degenerate|positive"):
            bernstein_matrix(0)
