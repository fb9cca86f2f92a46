"""Tests for the truncated Szasz-Mirakyan operator and its iterates."""

import math
import tracemalloc

import numpy as np
import pytest

from iterbern import (
    SzaszContext,
    poisson_basis,
    szasz_apply,
    szasz_coefficients,
    szasz_eval,
    szasz_iterated,
)
from iterbern import szasz
from iterbern.szasz import HARD_NODE_CAP, _poisson_vector


def poisson_pmf_oracle(mean, i):
    return math.exp(-mean + i * math.log(mean) - math.lgamma(i + 1))


class TestPoissonBasis:
    def test_at_origin(self):
        assert poisson_basis(7, 0, 0.0) == 1.0
        assert poisson_basis(7, 3, 0.0) == 0.0

    def test_log_gamma_oracle(self):
        assert poisson_basis(10, 20, 2.0) == pytest.approx(
            poisson_pmf_oracle(20.0, 20), rel=1e-12
        )
        assert poisson_basis(10, 20, 2.0) == pytest.approx(0.0888353, abs=5e-8)

    def test_small_and_large_index_paths_agree(self):
        # indices on both sides of i = 20, where an earlier direct-product
        # branch handed over to log space
        for i in (19, 20, 21, 22):
            assert poisson_basis(3, i, 4.0) == pytest.approx(
                poisson_pmf_oracle(12.0, i), rel=1e-12
            )

    def test_negative_x(self):
        with pytest.raises(ValueError, match="outside"):
            poisson_basis(3, 1, -0.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_nonfinite_x(self, x):
        with pytest.raises(ValueError, match="outside"):
            poisson_basis(3, 1, x)

    @pytest.mark.parametrize("n", [0.5, -1.0, math.nan, math.inf])
    def test_rate_below_one_or_nonfinite(self, n):
        with pytest.raises(ValueError, match=">= 1 and finite"):
            poisson_basis(n, 1, 1.0)
        with pytest.raises(ValueError, match=">= 1 and finite"):
            SzaszContext(n)

    @pytest.mark.parametrize("x", [0.0, 0.3, 2.0, 8.0])
    def test_matches_vector_entry(self, x):
        m = 2000
        row = _poisson_vector(7, x, m)
        got = np.array([poisson_basis(7, i, x) for i in range(m + 1)])
        np.testing.assert_allclose(got, row, rtol=5e-16, atol=0)

    def test_large_index_costs_one_weight(self):
        # Building all i + 1 weights took 55 MB at i = 10^6; measured there
        # first, so a regression fails before it tries i = 10^8.
        for i in (10**6, 10**8):
            tracemalloc.start()
            try:
                got = poisson_basis(10, i, i / 10)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000
            assert got == pytest.approx(poisson_pmf_oracle(float(i), i), rel=1e-6)


    def test_array_matches_pointwise(self):
        x = np.concatenate([[0.0], np.linspace(0.05, 9.0, 40)])
        stacked = np.column_stack([_poisson_vector(7, v, 90) for v in x])
        assert np.array_equal(_poisson_vector(7, x, 90), stacked)

    def test_operator_matches_column_by_column(self):
        ctx = SzaszContext(10)
        columns = np.column_stack([_poisson_vector(ctx.n, x, ctx.M) for x in ctx.nodes])
        assert np.array_equal(_poisson_vector(ctx.n, ctx.nodes, ctx.M), columns)

class TestSzaszContext:
    def test_truncation_invariants(self):
        ctx = SzaszContext(10)
        assert ctx.M >= math.ceil(10 * 8.0)
        # direct tail summation at the domain edge
        tail = 1.0 - np.sum(_poisson_vector(10, 8.0, ctx.M))
        assert tail < ctx.tail_tol

    def test_partition_of_unity_on_domain(self):
        ctx = SzaszContext(6, x_max=5.0, tail_tol=1e-10)
        for x in np.linspace(0, 5, 21):
            assert np.sum(_poisson_vector(6, x, ctx.M)) >= 1.0 - ctx.tail_tol

    def test_operator_built_on_first_use_and_kept(self):
        ctx = SzaszContext(10)
        assert "entries" not in vars(ctx)
        assert np.array_equal(ctx.entries, _poisson_vector(ctx.n, ctx.nodes, ctx.M))
        assert ctx.entries is ctx.entries

    @pytest.mark.parametrize("n, x_max", [(10, 8.0), (7, 80 / 7), (60, 7.99)])
    def test_complement_is_identity_minus_entries(self, n, x_max):
        ctx = SzaszContext(n, x_max)
        assert "complement" not in vars(ctx)
        complement = ctx.complement
        expected = np.eye(ctx.M + 1) - ctx.entries
        assert np.array_equal(complement.view(np.uint64), expected.view(np.uint64))
        assert not complement.flags.writeable
        assert ctx.complement is complement

    def test_m_not_an_argument(self):
        with pytest.raises(TypeError):
            SzaszContext(10, 8.0, 1e-12, M=50)

    def test_tail_mass_past_the_horizon(self):
        with pytest.raises(ValueError, match="could not reach tail mass 1e-300"):
            SzaszContext(10, 8.0, 1e-300)

    def test_tail_tol_range(self):
        with pytest.raises(ValueError, match="tail_tol"):
            SzaszContext(10, 8.0, 1e-3)

    @pytest.mark.parametrize("n,x_max", [(10, 8.0), (30, 8.0), (5, 4.0)])
    def test_partition_defect_oracle(self, n, x_max):
        # The defect is the Poisson tail above M, P(X > M) = P(M + 1, n x)
        # (regularized lower incomplete gamma), far below rounding of 1.
        mpmath = pytest.importorskip("mpmath")
        ctx = SzaszContext(n, x_max)
        for x in (x_max / 2, x_max):
            with mpmath.workdps(50):
                want = float(mpmath.gammainc(ctx.M + 1, 0, n * mpmath.mpf(x), regularized=True))
            got = ctx.partition_defect(x)
            assert got >= 0.0
            assert got == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("x", [-1.0, math.nan, 1e8])
    def test_partition_defect_domain(self, x, monkeypatch):
        ctx = SzaszContext(10)

        def no_tail(*args):
            raise AssertionError("tail computed for x outside the domain")

        monkeypatch.setattr(szasz, "_tail_masses", no_tail)
        with pytest.raises(ValueError, match=f"x={x} outside"):
            ctx.partition_defect(x)

    def test_partition_defect_mean_far_above_m(self):
        # the top-down sum of ~13000 pmf values gathered rounding past 1 here
        mpmath = pytest.importorskip("mpmath")
        ctx = SzaszContext(10)
        got = ctx.partition_defect(1000.0)
        with mpmath.workdps(50):
            want = float(mpmath.gammainc(ctx.M + 1, 0, 10000, regularized=True))
        assert got <= 1.0
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_partition_defect_at_node_cap(self):
        ctx = SzaszContext(10)
        assert 0.0 <= ctx.partition_defect(HARD_NODE_CAP / 10) <= 1.0 + 1e-10

    @pytest.mark.parametrize("x_max", [math.inf, math.nan])
    def test_nonfinite_x_max_rejected(self, x_max):
        with pytest.raises(ValueError, match="x_max must be positive and finite"):
            SzaszContext(10, x_max)

    def test_node_count_checked_before_tail(self, monkeypatch):
        def no_tail(*args):
            raise AssertionError("tail computed for a context over the cap")

        monkeypatch.setattr(szasz, "_tail_masses", no_tail)
        with pytest.raises(ValueError, match=r"n\*x_max=16000.0 exceeds the cap"):
            SzaszContext(2000)

    def test_largest_default_context_fits_the_cap(self):
        ctx = SzaszContext(1000)
        assert ctx.M <= HARD_NODE_CAP


def bits(a):
    return a.view(np.uint64)


class TestSharedTable:
    """Node j/n has Poisson mean j at every rate, so I - W depends on M alone."""

    @pytest.mark.parametrize("n, x_max", [(7, 80 / 7), (7.5, 80 / 7.5)])
    def test_equal_m_shares_one_block(self, n, x_max):
        a, b = SzaszContext(10, 8.0), SzaszContext(n, x_max)
        assert a.M == b.M == 358
        assert np.shares_memory(a.complement, b.complement)
        assert np.array_equal(bits(a.complement), bits(b.complement))

    def test_smaller_m_is_the_leading_block(self):
        small, large = SzaszContext(5, 4.0), SzaszContext(60, 7.99)
        assert small.M < large.M
        block = large.complement[: small.M + 1, : small.M + 1]
        assert np.array_equal(bits(small.complement), bits(block))

    def test_above_the_budget_builds_its_own_block(self, monkeypatch):
        table_block = SzaszContext(10).complement
        monkeypatch.setattr(szasz, "_TABLE_M_MAX", 100)
        own = SzaszContext(10).complement
        assert not np.shares_memory(own, szasz._table)
        assert np.array_equal(bits(own), bits(table_block))
        assert not own.flags.writeable

    def test_table_stays_within_16_mib(self, monkeypatch):
        monkeypatch.setattr(szasz, "_table", np.empty((0, 0)))
        assert 8 * (szasz._TABLE_M_MAX + 1) ** 2 <= 16 * 2**20 < 8 * (szasz._TABLE_M_MAX + 2) ** 2
        at, above = SzaszContext(10, 73.41), SzaszContext(10, 73.5)
        assert at.M == szasz._TABLE_M_MAX < above.M
        assert np.shares_memory(at.complement, szasz._table)
        assert not np.shares_memory(above.complement, szasz._table)
        assert szasz._table.nbytes <= 16 * 2**20

    def test_entries_match_the_pmf_oracle(self):
        complement = SzaszContext(10).complement
        for i, j in [(0, 1), (1, 1), (2, 5), (5, 3), (20, 20), (40, 35)]:
            want = (i == j) - poisson_pmf_oracle(float(j), i)
            assert complement[i, j] == pytest.approx(want, rel=1e-13, abs=0)


class TestSzaszApply:
    def test_constant(self):
        ctx = SzaszContext(10)
        for x in (0.0, 1.0, 7.5):
            assert szasz_apply(lambda u: 1.0, ctx, x) == pytest.approx(
                1.0, abs=ctx.tail_tol
            )

    def test_linear(self):
        ctx = SzaszContext(10)
        for x in (0.0, 2.0, 8.0):
            assert szasz_apply(lambda u: u, ctx, x) == pytest.approx(x, abs=1e-10)

    def test_square_closed_form(self):
        # second moment: S_n(x^2) = x^2 + x/n
        ctx = SzaszContext(10)
        assert szasz_apply(lambda u: u * u, ctx, 2.0) == pytest.approx(4.2, abs=1e-6)

    def test_nonfinite_node_value(self):
        ctx = SzaszContext(2, x_max=2.0, tail_tol=1e-8)
        with pytest.raises(ValueError, match="not finite"):
            szasz_apply(lambda u: 1.0 / u if u > 0 else math.inf, ctx, 1.0)

    def test_x_outside_domain(self):
        ctx = SzaszContext(10)
        with pytest.raises(ValueError, match="outside"):
            szasz_apply(lambda u: u, ctx, 9.0)


class TestSzaszIterated:
    def test_whole_float_order(self):
        ctx = SzaszContext(5, 2.0)
        want = szasz_coefficients(math.exp, ctx, 2)
        assert np.array_equal(szasz_coefficients(math.exp, ctx, 2.0), want)
        with pytest.raises(ValueError, match="k=2.5"):
            szasz_coefficients(math.exp, ctx, 2.5)

    def test_k1_matches_apply(self):
        ctx = SzaszContext(5, x_max=4.0, tail_tol=1e-10)
        f = lambda u: math.exp(-u)
        for x in (0.3, 2.2):
            assert szasz_iterated(f, ctx, 1, x) == pytest.approx(
                szasz_apply(f, ctx, x), abs=1e-14
            )

    def test_linear_fixed_point(self):
        ctx = SzaszContext(10)
        for k in (2, 3, 5):
            for x in (0.0, 1.5, 8.0):
                assert szasz_iterated(lambda u: u, ctx, k, x) == pytest.approx(
                    x, abs=10 * ctx.tail_tol
                )

    @pytest.mark.parametrize("n", [10, 30])
    def test_order_k_reproduces_degree_k(self, n):
        # I - S_n lowers a polynomial's degree by one and kills degree 1, so
        # order k reproduces degree d <= k, up to truncation, and misses at k = d - 1.
        ctx = SzaszContext(n)
        x = np.linspace(0, 8, 33)
        for d in range(6):
            f = lambda u: (u / 8) ** d
            for k in range(max(d, 1), 7):
                got = szasz_eval(ctx, szasz_coefficients(f, ctx, k), x)
                np.testing.assert_allclose(got, (x / 8) ** d, rtol=0, atol=1.4e-13)
            if d >= 2:
                got = szasz_eval(ctx, szasz_coefficients(f, ctx, d - 1), x)
                assert np.max(np.abs(got - (x / 8) ** d)) > 1e-8

    def test_overflow_raises(self):
        ctx = SzaszContext(1, x_max=1.0)
        f = lambda u: 1e308 if round(u) % 2 == 0 else -1e308
        with pytest.raises(FloatingPointError, match="overflow"):
            szasz_coefficients(f, ctx, 2)

    def test_iteration_improves_smooth_target(self):
        ctx = SzaszContext(10)
        f = lambda x: 0.25 * x * math.exp(-x / 2.0)
        grid = np.linspace(0, 8, 81)
        c1 = szasz_coefficients(f, ctx, 1)
        c3 = szasz_coefficients(f, ctx, 3)
        e1 = max(abs(szasz_eval(ctx, c1, x) - f(x)) for x in grid)
        e3 = max(abs(szasz_eval(ctx, c3, x) - f(x)) for x in grid)
        assert e3 < e1

    def test_matches_double_summation_oracle(self):
        # brute-force closed form over iterated Poisson basis functions,
        # on the identical truncated index set
        ctx = SzaszContext(4, 8.0, 1e-14)
        assert ctx.M == 251
        f = lambda x: 0.25 * x * math.exp(-x / 2.0)
        m, n = ctx.M, ctx.n
        op = np.empty((m + 1, m + 1))
        for j in range(m + 1):
            op[:, j] = _poisson_vector(n, j / n, m)
        node_vals = np.array([f(i / n) for i in range(m + 1)])

        def brute(k, x):
            px = _poisson_vector(n, x, m)
            total = 0.0
            for i in range(m + 1):
                w = np.zeros(m + 1)
                w[i] = 1.0
                part = 0.0
                for j in range(1, k + 1):
                    part += math.comb(k, j) * (-1.0) ** (j - 1) * (w @ px)
                    w = w @ op
                total += node_vals[i] * part
            return total

        for k in (1, 2, 3):
            for x in (0.5, 3.7, 7.0):
                assert szasz_iterated(f, ctx, k, x) == pytest.approx(
                    brute(k, x), abs=1e-9
                )

    def test_eval_array_matches_pointwise(self):
        ctx = SzaszContext(5, x_max=4.0, tail_tol=1e-10)
        c = szasz_coefficients(lambda u: math.exp(-u), ctx, 3)
        x = np.linspace(0, 4.0, 61)
        want = [szasz_eval(ctx, c, v) for v in x]
        got = szasz_eval(ctx, c, x)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))

    def test_node_cap(self):
        # n*x_max = 11000 passes its check; the derived M does not
        with pytest.raises(ValueError, match="M=13570 exceeds the node cap"):
            SzaszContext(1375, 8.0)
