"""Tests for the named-function registry and the constructed examples."""

import numpy as np
import pytest

from iterbern import build_example8, registry_lookup, registry_names


def test_known_names_present():
    names = registry_names()
    for expected in (
        "sin2pi",
        "signsq",
        "abshalf",
        "chi4",
        "sinpi",
        "expx",
        "gauss",
        "example7",
        "example8",
    ):
        assert expected in names


def test_unknown_name_lists_alternatives():
    with pytest.raises(KeyError, match="available"):
        registry_lookup("nope")


def test_abshalf_kink():
    assert registry_lookup("abshalf")(0.5) == 0.0


def test_signsq_value():
    assert registry_lookup("signsq")(0.75) == pytest.approx(0.0625)
    assert registry_lookup("signsq")(0.25) == pytest.approx(-0.0625)


def test_example7_midpoint():
    f = registry_lookup("example7")
    assert f(0.5) == pytest.approx(-0.25)


def test_example7_continuous_first_derivative():
    f = registry_lookup("example7")
    h = 1e-7
    left = (f(0.5) - f(0.5 - h)) / h
    right = (f(0.5 + h) - f(0.5)) / h
    assert left == pytest.approx(0.0, abs=1e-3)
    assert right == pytest.approx(0.0, abs=1e-3)


@pytest.mark.parametrize("name, h, points", [
    ("example7", 1e-6, [0.05, 0.2, 0.4, 0.45, 0.55, 0.7, 0.8, 0.95]),
    ("example8", 1e-5, [0.05, 0.2, 0.4, 0.55, 0.7, 0.8, 0.95]),
])
def test_derivative_matches_central_difference(name, h, points):
    # Interior points away from the junctions (0.5 and 2/3 - 0.05).
    f = registry_lookup(name)
    for t in points:
        assert f.derivative(t) == pytest.approx((f(t + h) - f(t - h)) / (2 * h), abs=1e-6)


def test_registry_functions_finite_on_domain():
    for name in registry_names():
        nf = registry_lookup(name)
        lo, hi = nf.domain
        xs = np.linspace(lo, hi, 10_000)
        vals = np.array([nf(x) for x in xs])
        assert np.all(np.isfinite(vals)), name


class TestExample8:
    def test_anchor_values(self):
        f = build_example8(70.0, 0.05)
        t_d = 2.0 / 3.0 - 0.05
        assert f(0.0) == pytest.approx(0.0, abs=1e-10)
        assert f(t_d) == pytest.approx(-3.0 * t_d, abs=1e-10)
        assert f(1.0) == pytest.approx(0.0, abs=1e-10)

    def test_strictly_convex_on_grid(self):
        f = build_example8(70.0, 0.05)
        h = 1e-5
        for t in np.linspace(2 * h, 1 - 2 * h, 1001):
            d2 = (f(t + h) - 2 * f(t) + f(t - h)) / h**2
            assert d2 > 0.0

    def test_c2_matching_at_junction(self):
        # fourth/third order one-sided stencils; the plain two-point
        # versions are swamped by the jump in the third derivative
        f = build_example8(70.0, 0.05)
        t_d = 2.0 / 3.0 - 0.05
        h = 3e-3

        def side(sign):
            y = [f(t_d + sign * j * h) for j in range(5)]
            d1 = sign * (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
            d2 = (35 * y[0] - 104 * y[1] + 114 * y[2] - 56 * y[3] + 11 * y[4]) / (12 * h**2)
            return d1, d2

        d1_left, d2_left = side(-1)
        d1_right, d2_right = side(+1)
        assert d1_left == pytest.approx(d1_right, abs=1e-7)
        assert d2_left == pytest.approx(d2_right, abs=1e-7)

    def test_small_radius_rejected(self):
        with pytest.raises(ValueError):
            build_example8(0.5, 0.05)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_example8(-1.0, 0.05)
        with pytest.raises(ValueError):
            build_example8(70.0, -0.1)
