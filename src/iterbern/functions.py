"""Registry of named test functions used by the CLI and the golden tests.

Covers the smooth/nonsmooth approximation targets, the three quadrature
integrands, and the two constructed piecewise functions (a C^1 convex
function with unbounded second derivative, and a circle-arc-plus-cubic
strictly convex function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ArgumentError


@dataclass(frozen=True)
class NamedFunction:
    name: str
    domain: tuple
    fn: Callable[[float], float]
    note: str = ""
    derivative: Callable[[float], float] | None = None

    def __call__(self, x: float) -> float:
        return self.fn(x)


def _example7(t: float) -> float:
    # Convex, C^1, second derivative blows up from the right at t = 0.5.
    if t < 0.5:
        return t * (t - 1.0)
    return -0.25 + (2.0 / 3.0) * (t - 0.5) ** 1.5


def _example7_deriv(t: float) -> float:
    if t < 0.5:
        return 2.0 * t - 1.0
    return math.sqrt(t - 0.5)


def build_example8(r: float, delta: float) -> NamedFunction:
    """Strictly convex C^2 function: circle arc up to t_d = 2/3 - delta,
    cubic continuation chosen to match value and first two derivatives at
    t_d and to vanish at t = 1.

    The "+" root for the circle-center height is taken; the "-" root puts
    the center below the arc and is rejected.
    """
    if r <= 0 or delta <= 0:
        raise ArgumentError("need r > 0 and delta > 0")
    t_d = 2.0 / 3.0 - delta
    disc = 900.0 * t_d**2 - 40.0 * (25.0 * t_d**2 - r**2)
    if disc < 0:
        raise ArgumentError(f"negative discriminant {disc}; radius r={r} too small")
    v = (-30.0 * t_d + math.sqrt(disc)) / 20.0
    if v <= 0:
        raise ArgumentError(f"center height v={v} not positive; radius r={r} too small")
    u = math.sqrt(r**2 - v**2)

    def f0(t):
        return v - math.sqrt(r**2 - (t - u) ** 2)

    def f0_d1(t):
        return (t - u) / math.sqrt(r**2 - (t - u) ** 2)

    def f0_d2(t):
        return r**2 / (r**2 - (t - u) ** 2) ** 1.5

    # Cubic p(t) = a0 + a1 t + a2 t^2 + a3 t^3 with p(1) = 0 and
    # p^(j)(t_d) = f0^(j)(t_d) for j = 0, 1, 2.
    system = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [1.0, t_d, t_d**2, t_d**3],
            [0.0, 1.0, 2.0 * t_d, 3.0 * t_d**2],
            [0.0, 0.0, 2.0, 6.0 * t_d],
        ]
    )
    rhs = np.array([0.0, f0(t_d), f0_d1(t_d), f0_d2(t_d)])
    if abs(np.linalg.det(system)) < 1e-12:
        raise ArgumentError("cubic matching system is singular")
    a = np.linalg.solve(system, rhs)

    def fn(t):
        if t <= t_d:
            return f0(t)
        return float(a[0] + a[1] * t + a[2] * t**2 + a[3] * t**3)

    def deriv(t):
        if t <= t_d:
            return f0_d1(t)
        return float(a[1] + 2.0 * a[2] * t + 3.0 * a[3] * t**2)

    return NamedFunction(
        name="example8",
        domain=(0.0, 1.0),
        fn=fn,
        note=f"circle arc (r={r}) joined C^2 to a cubic at t={t_d:.4f}; strictly convex",
        derivative=deriv,
    )


_REGISTRY: dict[str, NamedFunction] = {}


def _register(nf: NamedFunction):
    if nf.name in _REGISTRY:
        raise ArgumentError(f"duplicate function name {nf.name!r}")
    _REGISTRY[nf.name] = nf


_register(
    NamedFunction(
        "sin2pi",
        (0.0, 1.0),
        lambda t: math.sin(2.0 * math.pi * t),
        "smooth oscillation",
        derivative=lambda t: 2.0 * math.pi * math.cos(2.0 * math.pi * t),
    )
)
_register(
    NamedFunction(
        "signsq",
        (0.0, 1.0),
        lambda t: math.copysign((t - 0.5) ** 2, t - 0.5),
        "differentiable, not twice differentiable at t=0.5",
        derivative=lambda t: 2.0 * abs(t - 0.5),
    )
)
_register(
    NamedFunction(
        "abshalf",
        (0.0, 1.0),
        lambda t: abs(t - 0.5),
        "convex, not differentiable at t=0.5",
    )
)
_register(
    NamedFunction(
        "chi4",
        (0.0, 8.0),
        lambda x: 0.25 * x * math.exp(-x / 2.0),
        "chi-square(4) density shape on [0, inf)",
        derivative=lambda x: 0.25 * math.exp(-x / 2.0) * (1.0 - x / 2.0),
    )
)
_register(
    NamedFunction(
        "sinpi",
        (0.0, 1.0),
        lambda x: math.pi * math.sin(math.pi * x),
        "quadrature integrand pi*sin(pi*x), exact integral 2 on [0,1]",
        derivative=lambda x: math.pi**2 * math.cos(math.pi * x),
    )
)
_register(
    NamedFunction(
        "expx",
        (0.0, 1.0),
        math.exp,
        "quadrature integrand e^x, exact integral e-1 on [0,1]",
        derivative=math.exp,
    )
)
_register(
    NamedFunction(
        "gauss",
        (0.0, 1.0),
        lambda x: math.exp(-x**2 / 2.0) / math.sqrt(2.0 * math.pi),
        "standard normal density; integral on [0,1] is Phi(1)-0.5",
        derivative=lambda x: -x * math.exp(-x**2 / 2.0) / math.sqrt(2.0 * math.pi),
    )
)
_register(
    NamedFunction(
        "one",
        (0.0, 8.0),
        lambda x: 1.0,
        "constant 1",
        derivative=lambda x: 0.0,
    )
)
_register(
    NamedFunction(
        "example7",
        (0.0, 1.0),
        _example7,
        "convex, C^1, no continuous second derivative at t=0.5",
        derivative=_example7_deriv,
    )
)
_register(build_example8(70.0, 0.05))


def registry_names() -> list[str]:
    return sorted(_REGISTRY)


def registry_lookup(name: str) -> NamedFunction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; available: {', '.join(registry_names())}"
        ) from None
