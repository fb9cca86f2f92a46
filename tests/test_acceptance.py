"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from iterbern import (
    INFINITY,
    QContext,
    SzaszContext,
    UniformSamples,
    bernstein_apply,
    bernstein_matrix,
    coefficients,
    derivative_eval,
    eval_iterated,
    iterate_coefficients,
    limit_coefficients,
    q_apply,
    quadrature,
    registry_lookup,
    szasz_apply,
    szasz_coefficients,
    szasz_eval,
)
from iterbern.cli import TABLE_GOLDEN, TABLE_K

GRID_1001 = np.linspace(0.0, 1.0, 1001)


def report(number, description):
    print(f"PASS criterion {number}: {description}")


def run_table(table_id):
    spec = TABLE_GOLDEN[table_id]
    n = spec["n"]
    start = time.perf_counter()
    deviations = []
    for name, printed, _exact in spec["rows"]:
        fn = registry_lookup(name)
        for k, ref in zip(TABLE_K, printed):
            deviations.append(abs(quadrature(fn, 0.0, 1.0, n, k) - ref))
    elapsed = time.perf_counter() - start
    return deviations, elapsed


def test_criterion_01_table1():
    deviations, elapsed = run_table(1)
    assert max(deviations) < 5e-7
    assert elapsed < 1.0
    report(1, f"Table 1 (n=5): max |dev| {max(deviations):.2e}, {elapsed:.3f}s")


def test_criterion_02_table2():
    deviations, elapsed = run_table(2)
    assert max(deviations) < 5e-7
    assert elapsed < 1.0
    report(2, f"Table 2 (n=10): max |dev| {max(deviations):.2e}, {elapsed:.3f}s")


def test_criterion_03_endpoint_interpolation():
    rng = np.random.default_rng(2024)
    orders = list(range(1, 11)) + [INFINITY]
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        s = UniformSamples(n, rng.normal(size=n + 1))
        for k in orders:
            c = coefficients(s, k)
            worst = max(
                worst,
                abs(eval_iterated(c, 0.0) - s.values[0]),
                abs(eval_iterated(c, 1.0) - s.values[-1]),
            )
    assert worst < 1e-12
    report(3, f"endpoint interpolation: worst {worst:.2e} < 1e-12")


def test_criterion_04_linear_preservation():
    rng = np.random.default_rng(77)
    orders = list(range(1, 11)) + [INFINITY]
    grid = np.linspace(0.0, 1.0, 41)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 21))
        a, b = rng.normal(size=2)
        s = UniformSamples(n, a + b * np.arange(n + 1) / n)
        for k in orders:
            c = coefficients(s, k)
            worst = max(
                worst, max(abs(eval_iterated(c, t) - (a + b * t)) for t in grid)
            )
    assert worst < 1e-10
    report(4, f"linear preservation: worst grid error {worst:.2e} < 1e-10")


def test_criterion_05_oracle_equivalence():
    from iterbern import binomial

    rng = np.random.default_rng(5)
    worst_rel = 0.0
    for n in range(2, 11):
        s = UniformSamples(n, rng.normal(size=n + 1))
        b = bernstein_matrix(n).entries
        for k in range(1, 7):
            closed = np.zeros(n + 1)
            power = np.eye(n + 1)
            for i in range(1, k + 1):
                closed += binomial(k, i) * (-1.0) ** (i - 1) * (s.values @ power)
                power = power @ b
            got = iterate_coefficients(s, k).coeffs
            scale = max(1.0, np.max(np.abs(closed)))
            worst_rel = max(worst_rel, np.max(np.abs(got - closed)) / scale)
    assert worst_rel < 1e-10
    # pointwise operator identity for k = 2
    n = 9
    s = UniformSamples(n, rng.normal(size=n + 1))
    b = bernstein_matrix(n).entries
    once = UniformSamples(n, s.values @ b)
    c2 = iterate_coefficients(s, 2)
    worst_pt = max(
        abs(eval_iterated(c2, t) - (2 * bernstein_apply(s, t) - bernstein_apply(once, t)))
        for t in np.linspace(0, 1, 101)
    )
    assert worst_pt < 1e-12
    report(5, f"oracle equivalence: rel {worst_rel:.2e}, pointwise {worst_pt:.2e}")


def test_criterion_06_limit_interpolation():
    f = registry_lookup("sin2pi")
    worst_ratio = 0.0
    for n in range(2, 16):
        s = UniformSamples.from_function(f, n)
        c = limit_coefficients(s)
        cond = np.linalg.cond(bernstein_matrix(n).entries, 1)
        err = max(abs(eval_iterated(c, i / n) - s.values[i]) for i in range(n + 1))
        worst_ratio = max(worst_ratio, err / (1e-8 * cond))
    assert worst_ratio < 1.0
    report(6, f"limit interpolates at nodes: worst err/tol ratio {worst_ratio:.2e}")


def test_criterion_07_nonsmooth_error_reduction():
    f = registry_lookup("abshalf")
    s = UniformSamples.from_function(f, 30)
    e1 = max(abs(eval_iterated(iterate_coefficients(s, 1), t) - f(t)) for t in GRID_1001)
    e3 = max(abs(eval_iterated(iterate_coefficients(s, 3), t) - f(t)) for t in GRID_1001)
    assert e3 < 0.5 * e1
    report(7, f"|t-0.5|, n=30: max err k=3 {e3:.4f} < half of k=1 {e1:.4f}")


def test_criterion_08_voronovskaya():
    n, t = 200, 0.3
    f = lambda x: math.sin(2 * math.pi * x)
    second = -4 * math.pi**2 * math.sin(2 * math.pi * t)
    s = UniformSamples.from_function(f, n)
    scaled_err = n * (bernstein_apply(s, t) - f(t))
    limit = t * (1 - t) * second / 2
    rel = abs(scaled_err - limit) / abs(limit)
    assert rel < 0.05
    report(8, f"Voronovskaya at n=200: relative deviation {rel:.4f} < 0.05")


def test_criterion_09_rate_scaling():
    def max_err(n):
        s = UniformSamples(n, (np.arange(n + 1) / n) ** 4)
        c = iterate_coefficients(s, 2)
        return max(abs(eval_iterated(c, t) - t**4) for t in GRID_1001)

    ratio = max_err(64) / max_err(128)
    assert 3.5 <= ratio <= 4.5
    report(9, f"t^4, k=2 rate: err(64)/err(128) = {ratio:.3f} in [3.5, 4.5]")


def test_criterion_10_matrix_structure():
    worst = 0.0
    for n in range(1, 31):
        b = bernstein_matrix(n).entries
        ones = np.ones(n + 1)
        u = np.arange(n + 1) / n
        worst = max(
            worst,
            np.max(np.abs(ones @ b - ones)),
            np.max(np.abs(u @ b - u)),
        )
    assert worst < 1e-12
    for n in range(1, 13):
        eig = np.sort(np.linalg.eigvals(bernstein_matrix(n).entries).real)
        assert eig[0] > 0.0
        assert eig[-1] <= 1.0 + 1e-10
        assert np.sum(np.abs(eig - 1.0) < 1e-8) == 2
    report(10, f"matrix structure: fixed vectors {worst:.2e}, eigenvalues in (0,1]")


def test_criterion_11_derivative_consistency():
    worst = 0.0
    for name in ("sin2pi", "expx"):
        f = registry_lookup(name)
        for n in (12, 30):
            s = UniformSamples.from_function(f, n)
            for k in (1, 2, 3):
                c = iterate_coefficients(s, k)
                h = 1e-5
                for t in np.linspace(0.05, 0.95, 7):
                    fd1 = (eval_iterated(c, t + h) - eval_iterated(c, t - h)) / (2 * h)
                    # direct second differences of eval_iterated lose half
                    # the mantissa; difference the first derivative instead
                    fd2 = (
                        derivative_eval(s, k, 1, t + h)
                        - derivative_eval(s, k, 1, t - h)
                    ) / (2 * h)
                    for r, fd in ((1, fd1), (2, fd2)):
                        got = derivative_eval(s, k, r, t)
                        worst = max(worst, abs(got - fd) / max(1.0, abs(fd)))
    assert worst < 1e-5
    report(11, f"derivative vs central differences: worst rel {worst:.2e} < 1e-5")


def test_criterion_12_szasz_properties():
    ctx = SzaszContext(10)
    defect = max(ctx.partition_defect(x) for x in np.linspace(0, 8, 33))
    assert defect < ctx.tail_tol
    moment = szasz_apply(lambda u: u * u, ctx, 2.0)
    assert moment == pytest.approx(4.2, abs=1e-6)
    f = registry_lookup("chi4")
    grid = np.linspace(0, 8, 81)
    c1 = szasz_coefficients(f, ctx, 1)
    c3 = szasz_coefficients(f, ctx, 3)
    e1 = max(abs(szasz_eval(ctx, c1, x) - f(x)) for x in grid)
    e3 = max(abs(szasz_eval(ctx, c3, x) - f(x)) for x in grid)
    assert e3 < e1
    report(
        12,
        f"Szasz: defect {defect:.1e}, S(x^2)(2)={moment:.7f}, "
        f"k=3 err {e3:.2e} < k=1 err {e1:.2e}",
    )


def test_criterion_13_q_reduction_and_improvement():
    rng = np.random.default_rng(13)
    # q = 1 reduction across random inputs
    worst = 0.0
    for n in (4, 11, 20):
        vals = rng.normal(size=n + 1)
        ctx = QContext(1.0, n)
        s = UniformSamples(n, vals)
        for k in (1, 3):
            c = iterate_coefficients(s, k)
            from iterbern import q_iterated

            for t in np.linspace(0, 1, 11):
                worst = max(worst, abs(q_iterated(ctx, vals, k, t) - eval_iterated(c, t)))
    assert worst < 1e-12
    # q = 1.1 improvement for sin(2 pi t) away from the right endpoint
    f = registry_lookup("sin2pi")
    n = 30
    ctx = QContext(1.1, n)
    node_vals = np.array([f(x) for x in ctx.nodes])
    s = UniformSamples.from_function(f, n)
    grid = np.linspace(0, 0.9, 181)
    err_q = max(abs(q_apply(ctx, node_vals, t) - f(t)) for t in grid)
    err_classical = max(abs(bernstein_apply(s, t) - f(t)) for t in grid)
    assert err_q < err_classical
    report(
        13,
        f"q-Bernstein: q=1 reduction {worst:.1e}; q=1.1 err {err_q:.4f} "
        f"< classical {err_classical:.4f} on [0, 0.9]",
    )


def test_criterion_14_convexity_not_preserved():
    f = registry_lookup("example8")
    h = 1e-5
    grid = np.linspace(2 * h, 1 - 2 * h, 1001)
    min_d2 = min((f(t + h) - 2 * f(t) + f(t - h)) / h**2 for t in grid)
    assert min_d2 > 0.0
    s = UniformSamples.from_function(f, 30)
    window = np.linspace(0.3, 0.5, 201)
    min_approx_d2 = min(derivative_eval(s, 2, 2, t) for t in window)
    assert min_approx_d2 < 0.0
    report(
        14,
        f"convexity failure: f'' >= {min_d2:.3f} > 0 but approximant "
        f"d2 reaches {min_approx_d2:.3f} on [0.3, 0.5]",
    )


def test_criterion_15_monotonicity_preserved():
    n = 20
    u = np.arange(n + 1) / n
    s = UniformSamples(n, u**3 + u)
    min_slope = math.inf
    for k in (1, 2, 3):
        min_slope = min(
            min_slope, min(derivative_eval(s, k, 1, t) for t in GRID_1001)
        )
    assert min_slope > 0.0
    report(15, f"monotonicity: min first derivative {min_slope:.4f} > 0")
