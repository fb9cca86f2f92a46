"""Tests for q-numbers, Gaussian binomials and iterated q-Bernstein polys."""

import math
from fractions import Fraction

import numpy as np
import pytest

from iterbern import (
    ArgumentError,
    QContext,
    UniformSamples,
    basis_eval,
    bernstein_apply,
    binomial,
    eval_iterated,
    iterate_coefficients,
    q_apply,
    q_basis,
    q_binomial,
    q_coefficients,
    q_eval,
    q_iterated,
    q_number,
)
from iterbern import qbern


class TestQNumber:
    def test_zero(self):
        assert q_number(0, 1.3) == 0.0

    def test_q_one_limit(self):
        assert q_number(5.0, 1.0) == 5.0
        q = 1.0 + 1e-13
        geometric = float(sum(Fraction(q) ** j for j in range(5)))  # exact, rounded once
        assert q_number(5.0, q) == pytest.approx(geometric, rel=1e-15, abs=0)

    def test_q_two(self):
        assert q_number(3, 2.0) == pytest.approx(7.0)

    def test_near_one_continuous(self):
        assert q_number(4, 1.0 + 1e-9) == pytest.approx(4.0, abs=1e-7)

    def test_nonpositive_q(self):
        with pytest.raises(ValueError, match="positive"):
            q_number(2, 0.0)

    @pytest.mark.parametrize("q", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_near_one_oracle(self, q):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            qm = mpmath.mpf(q)
            want = float((1 - qm**2.5) / (1 - qm))
        assert q_number(2.5, q) == pytest.approx(want, rel=1e-15, abs=0)

    def test_array(self):
        x = np.array([0.0, 1.0, 2.5, 7.0])
        assert np.array_equal(q_number(x, 1.2), [q_number(v, 1.2) for v in x])
        assert np.array_equal(q_number(x, 1.0), x)


# q within 1e-6 of 1, where (1 - q^x) / (1 - q) loses up to 8 digits.
NEAR_ONE = [1.0 - 1e-9, 1.0 + 1e-11, 1.0 + 1e-9, 1.0 + 1e-6]


def mp_q_integers(q, n, mpmath):
    """[0]_q..[n]_q as mpmath numbers, from the double q taken exactly."""
    qm = mpmath.mpf(q)
    return [(1 - qm**i) / (1 - qm) for i in range(n + 1)]


class TestQBinomial:
    @pytest.mark.parametrize("n,r", [(0, 0), (5, 2), (8, 8), (12, 5)])
    def test_q_one_is_classical(self, n, r):
        assert q_binomial(n, r, 1.0) == pytest.approx(binomial(n, r), rel=1e-12)

    def test_out_of_range_zero(self):
        assert q_binomial(4, 5, 1.7) == 0.0
        assert q_binomial(4, -1, 1.7) == 0.0

    def test_gaussian_value(self):
        # (1-16)(1-8) / ((1-4)(1-2)) = 35
        assert q_binomial(4, 2, 2.0) == pytest.approx(35.0, rel=1e-12)

    def test_quotient_of_products_oracle(self):
        q = 1.2
        for n in range(1, 10):
            for r in range(n + 1):
                if r == 0:
                    continue
                num = math.prod(1 - q ** (n - i) for i in range(r))
                den = math.prod(1 - q ** (r - i) for i in range(r))
                assert q_binomial(n, r, q) == pytest.approx(num / den, rel=1e-11)

    @pytest.mark.parametrize("n,q", [(1100, 1.0), (200, 1.1)])
    def test_overflow_raises(self, n, q):
        # [n, n/2]_q is past the float range: an error, never inf or NaN.
        with pytest.raises(ArithmeticError):
            q_binomial(n, n // 2, q)

    @pytest.mark.parametrize("q", NEAR_ONE)
    def test_near_one_oracle(self, q):
        mpmath = pytest.importorskip("mpmath")
        n = 30
        with mpmath.workdps(50):
            qint = mp_q_integers(q, n, mpmath)
            want = [float(mpmath.fprod(qint[n - r + 1 : n + 1]) / mpmath.fprod(qint[1 : r + 1]))
                    for r in range(n + 1)]
        got = [q_binomial(n, r, q) for r in range(n + 1)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestQContext:
    def test_nodes_q1_uniform(self):
        ctx = QContext(1.0, 6)
        assert ctx.nodes == pytest.approx(np.arange(7) / 6)

    def test_node_invariants(self):
        ctx = QContext(1.2, 9)
        assert ctx.nodes[0] == 0.0 and ctx.nodes[-1] == 1.0
        assert np.all(np.diff(ctx.nodes) > 0)

    @pytest.mark.parametrize("q", NEAR_ONE)
    def test_nodes_near_one_oracle(self, q):
        mpmath = pytest.importorskip("mpmath")
        n = 30
        with mpmath.workdps(50):
            qint = mp_q_integers(q, n, mpmath)
            want = [float(v / qint[n]) for v in qint]
        np.testing.assert_allclose(QContext(q, n).nodes, want, rtol=0, atol=1e-15)

    # Nodes and Gaussian row at (q, n) = (0.9, 10) and (1.1, 20), as computed
    # when the row took (n, q) and recomputed the q-integers itself.
    PINNED = {
        (0.9, 10): (
            [0.0, 0.1535339932787629, 0.29171458722964955, 0.4160771217854476,
             0.5280034028856657, 0.628737055875862, 0.7193973435670388,
             0.8009916024890977, 0.874426435518951, 0.940517785245819, 1.0],
            [1.0, 6.513215599000001, 20.99927592985786, 44.13201552882579,
             66.94914018795158, 76.60282331890896, 66.94914018795158, 44.13201552882578,
             20.999275929857852, 6.513215598999999, 0.9999999999999996],
        ),
        (1.1, 20): (
            [0.0, 0.017459624772545774, 0.03666521202234613, 0.057791357997126515,
             0.08103011856938494, 0.10659275519886921, 0.13471165549130193,
             0.16564244581297788, 0.19966631516682148, 0.23709257145604942,
             0.27826145337420016, 0.323547223484166, 0.37336157060512837,
             0.42815735243818703, 0.48843271245455144, 0.5547356084725524,
             0.6276687940923535, 0.7078952982741348, 0.7961444528740942,
             0.8932185229340492, 1.0],
            [1.0, 57.27499949325605, 1395.3032759563741, 19221.956391558626,
             167926.84983625208, 988833.0884758501, 4071963.3576833457, 12007067.983374301,
             25747529.99278632, 40545927.60233893, 47144590.600859314, 40545927.60233894,
             25747529.992786326, 12007067.983374305, 4071963.3576833466, 988833.0884758502,
             167926.8498362521, 19221.95639155863, 1395.3032759563744, 57.274999493256054,
             1.0],
        ),
    }

    @pytest.mark.parametrize("q, n", sorted(PINNED))
    def test_nodes_and_row_bit_identical(self, q, n, monkeypatch):
        calls = []
        q_number = qbern.q_number
        monkeypatch.setattr(qbern, "q_number", lambda *a: calls.append(a) or q_number(*a))
        ctx = QContext(q, n)
        assert len(calls) == 1  # one vector of q-integers per context
        nodes, row = self.PINNED[q, n]
        assert ctx.nodes.tolist() == nodes
        assert ctx._row.tolist() == row
        assert [q_binomial(n, r, q) for r in range(n + 1)] == row

    def test_attraction_toward_zero(self):
        ctx = QContext(1.3, 10)
        for i in range(1, 10):
            assert ctx.nodes[i] < i / 10

    def test_gaussian_row_built_once(self, monkeypatch):
        ctx = QContext(0.9, 12)
        assert np.array_equal(ctx._row, qbern._gaussian_row(12, 0.9))

        def no_row(*args):
            raise AssertionError("Gaussian row recomputed after construction")

        monkeypatch.setattr(qbern, "_gaussian_row", no_row)
        for t in (0.0, 0.4, np.linspace(0, 1, 5)):
            ctx.basis(t)

    def test_operator_built_on_first_use_and_kept(self):
        ctx = QContext(0.9, 12)
        assert "entries" not in vars(ctx)
        assert np.array_equal(ctx.entries, ctx.basis(ctx.nodes))
        assert ctx.entries is ctx.entries

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.0, 1.1])
    @pytest.mark.parametrize("n", [4, 30])
    def test_complement_is_identity_minus_entries(self, q, n):
        ctx = QContext(q, n)
        assert "complement" not in vars(ctx)
        complement = ctx.complement
        expected = np.eye(n + 1) - ctx.entries
        assert np.array_equal(complement.view(np.uint64), expected.view(np.uint64))
        assert not complement.flags.writeable
        assert ctx.complement is complement

    @pytest.mark.parametrize("q", [0.5, 0.7, 0.9, 0.99, 1.0])
    def test_spectrum_is_exact(self, q):
        # The eigenvalues are prod_{s<j} q^s [n-s]_q / [n]_q, j = 0..n (Ostrovska 2003),
        # here in exact rationals from the double q, rounded once (measured within 5.4e-14).
        # q > 1 is left out: there the spectrum is ill-conditioned.
        qf = Fraction(q)
        for n in range(1, 31):
            qint = [sum((qf**i for i in range(m)), Fraction(0)) for m in range(n + 1)]
            exact = [Fraction(1)]
            for s in range(n):
                exact.append(exact[-1] * qf**s * qint[n - s] / qint[n])
            eig = np.linalg.eigvals(QContext(q, n).entries)
            np.testing.assert_allclose(np.sort(eig.real), np.sort([float(v) for v in exact]), rtol=0, atol=1e-12)
            assert np.max(np.abs(eig.imag)) <= 1e-12

    def test_nodes_not_an_argument(self):
        with pytest.raises(TypeError):
            QContext(0.9, 4, nodes=np.linspace(0, 1, 5))

    def test_equal_parameters_compare_and_hash_alike(self):
        # the derived arrays take no part, so == no longer meets array truth values
        assert QContext(0.9, 4) == QContext(0.9, 4)
        assert hash(QContext(0.9, 4)) == hash(QContext(0.9, 4))
        assert QContext(0.9, 4) != QContext(0.9, 5)

    def test_range_limits(self):
        with pytest.raises(ValueError, match="supported range"):
            QContext(1.6, 5)
        with pytest.raises(ValueError, match="supported range"):
            QContext(math.nan, 5)
        with pytest.warns(RuntimeWarning, match="degrades"):
            QContext(1.4, 5)

    def test_warning_names_the_caller(self):
        with pytest.warns(RuntimeWarning, match="degrades") as record:
            QContext(1.4, 5)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("q", [1e-17, 1e-300, 5e-324])
    def test_tiny_q(self, q):
        # q - 1 rounds to -1 here, so the q-integers take L = log q: [0]_q = 0
        # and [j]_q = 1 for j >= 1, which puts every node but the first at 1.
        ctx = QContext(q, 6)
        assert np.array_equal(ctx.nodes, [0.0] + [1.0] * 6)
        total = ctx.basis(np.linspace(0, 1, 21)).sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 2.5e-16


class TestQBasis:
    def test_q1_reduction(self):
        ctx = QContext(1.0, 8)
        for i in range(9):
            for t in (0.0, 0.37, 1.0):
                assert q_basis(ctx, i, t) == pytest.approx(
                    basis_eval(8, i, t), abs=1e-13
                )

    def test_left_endpoint(self):
        ctx = QContext(1.1, 5)
        assert q_basis(ctx, 0, 0.0) == 1.0
        for i in range(1, 6):
            assert q_basis(ctx, i, 0.0) == 0.0

    def test_partition_of_unity(self):
        ctx = QContext(1.1, 8)
        assert sum(q_basis(ctx, i, 0.37) for i in range(9)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_domain_error(self):
        ctx = QContext(1.1, 4)
        with pytest.raises(ValueError, match="outside"):
            q_basis(ctx, 0, -0.1)

    def test_product_form_oracle(self):
        ctx = QContext(1.2, 9)
        for i in range(10):
            for t in (0.0, 0.15, 0.5, 0.93, 1.0):
                ref = q_binomial(9, i, 1.2) * t**i * math.prod(
                    1.0 - 1.2**s * t for s in range(9 - i)
                )
                assert q_basis(ctx, i, t) == pytest.approx(ref, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("q", [0.7, 1.0, 1.2])
    def test_array_matches_pointwise(self, q):
        ctx = QContext(q, 9)
        t = np.concatenate([ctx.nodes, np.linspace(0, 1, 31)])
        stacked = np.column_stack([ctx.basis(x) for x in t])
        assert np.array_equal(ctx.basis(t), stacked)


class TestQApply:
    def test_constant(self):
        ctx = QContext(1.2, 7)
        vals = np.full(8, 2.5)
        for t in np.linspace(0, 1, 9):
            assert q_apply(ctx, vals, t) == pytest.approx(2.5, abs=1e-12)

    def test_linear_preserved(self):
        ctx = QContext(1.2, 8)
        for t in np.linspace(0, 1, 17):
            assert q_apply(ctx, ctx.nodes, t) == pytest.approx(t, abs=1e-12)

    def test_q1_matches_classical(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=9)
        ctx = QContext(1.0, 8)
        s = UniformSamples(8, vals)
        for t in np.linspace(0, 1, 9):
            assert q_apply(ctx, vals, t) == pytest.approx(
                bernstein_apply(s, t), abs=1e-13
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_node_values_rejected(self, bad):
        ctx = QContext(0.9, 4)
        vals = [0.0, 1.0, bad, 1.0, 0.0]
        for call in (lambda: q_coefficients(ctx, vals, 3), lambda: q_apply(ctx, vals, 0.5),
                     lambda: q_iterated(ctx, vals, 3, 0.5)):
            with pytest.raises(ArgumentError, match="node values must all be finite"):
                call()

    def test_length_mismatch(self):
        ctx = QContext(1.1, 5)
        with pytest.raises(ValueError, match="expected 6"):
            q_apply(ctx, np.zeros(5), 0.5)


class TestQIterated:
    def test_whole_float_order(self):
        ctx = QContext(0.9, 6)
        vals = np.sin(np.arange(7.0))
        assert np.array_equal(q_coefficients(ctx, vals, 2.0), q_coefficients(ctx, vals, 2))
        with pytest.raises(ValueError, match="k=2.5"):
            q_coefficients(ctx, vals, 2.5)

    def test_k1_matches_apply(self):
        ctx = QContext(1.1, 6)
        vals = np.sin(np.arange(7.0))
        for t in (0.2, 0.8):
            assert q_iterated(ctx, vals, 1, t) == pytest.approx(
                q_apply(ctx, vals, t), abs=1e-14
            )

    def test_q1_reduces_to_classical_iteration(self):
        rng = np.random.default_rng(4)
        n = 10
        vals = rng.normal(size=n + 1)
        ctx = QContext(1.0, n)
        s = UniformSamples(n, vals)
        for k in (2, 3, 5):
            c = iterate_coefficients(s, k)
            for t in np.linspace(0, 1, 7):
                assert q_iterated(ctx, vals, k, t) == pytest.approx(
                    eval_iterated(c, t), abs=1e-12
                )

    @pytest.mark.parametrize("q,degrees", [
        (1.05, (5, 12, 20)),
        (1.1, (5, 12, 20)),
        # at q=1.2, n=20 the basis values reach ~7e8 before cancelling,
        # so 1e-10 is below the double-precision floor there
        (1.2, (5, 12)),
    ])
    def test_linear_preservation(self, q, degrees):
        for n in degrees:
            ctx = QContext(q, n)
            for k in (1, 2, 4):
                for t in np.linspace(0, 1, 9):
                    assert q_iterated(ctx, ctx.nodes, k, t) == pytest.approx(
                        t, abs=1e-10
                    )

    @pytest.mark.parametrize("q, degrees, orders", [
        (1.0, (5, 10, 30), 100), (0.9, (10,), 10), (0.5, (20,), 10), (1.1, (10,), 10),
    ])
    def test_square_closed_form(self, q, degrees, orders):
        # A_k(t^2) = t^2 + t(1 - t) / [n]_q^k, since (I - B_q) t^2 = -t(1 - t) / [n]_q
        # and (I - B_q) t(1 - t) = t(1 - t) / [n]_q.
        t = np.linspace(0, 1, 21)
        for n in degrees:
            ctx = QContext(q, n)
            for k in range(1, orders + 1):
                got = q_eval(ctx, q_coefficients(ctx, ctx.nodes**2, k), t)
                want = t * t + t * (1 - t) / q_number(n, q) ** k
                np.testing.assert_allclose(got, want, rtol=0, atol=6.7e-16)

    def test_overflow_raises(self):
        vals = np.array([1e308, -1e308, 1e308, -1e308, 1e308])
        with pytest.raises(FloatingPointError, match="overflow"):
            q_coefficients(QContext(0.9, 4), vals, 2)

    @pytest.mark.parametrize("q, n, k", [(0.9, 20, 3000), (0.7, 30, 10**4), (1.2, 15, 2000)])
    def test_constant_samples_exact(self, q, n, k):
        ctx = QContext(q, n)
        for c in (1.0, 0.3):
            vals = np.full(n + 1, c)
            assert np.array_equal(q_coefficients(ctx, vals, k), vals)

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 1.3])
    def test_end_coefficients_are_end_samples(self, q):
        # [n, n]_q from the Gaussian row may be an ulp off 1, so the last
        # column of the operator need not be an exact unit vector.
        for n in (5, 17, 30):
            ctx = QContext(q, n)
            vals = np.exp(ctx.nodes)
            for k in (1, 2, 50, 2000, 10**4):
                c = q_coefficients(ctx, vals, k)
                assert (c[0], c[-1]) == (vals[0], vals[-1]), (n, k)

    @pytest.mark.parametrize("q", [0.8, 1.0, 1.1])
    def test_eval_array_matches_pointwise(self, q):
        ctx = QContext(q, 12)
        c = q_coefficients(ctx, np.sin(2 * np.pi * ctx.nodes), 3)
        t = np.linspace(0, 1, 51)
        want = [q_eval(ctx, c, x) for x in t]
        got = q_eval(ctx, c, t)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))

    def test_improves_sin_away_from_right_end(self):
        f = lambda t: math.sin(2 * math.pi * t)
        n = 30
        ctx = QContext(1.1, n)
        node_vals = np.array([f(x) for x in ctx.nodes])
        s = UniformSamples.from_function(f, n)
        grid = np.linspace(0, 0.9, 181)
        err_q1 = max(abs(bernstein_apply(s, t) - f(t)) for t in grid)
        err_k3 = max(abs(q_iterated(ctx, node_vals, 3, t) - f(t)) for t in grid)
        assert err_k3 < err_q1
