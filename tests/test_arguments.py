"""The argument contract: a degree is an integer, and every argument outside
its documented domain raises ArgumentError, which is a ValueError."""

import math

import numpy as np
import pytest

from iterbern import (
    ArgumentError,
    BernsteinMatrix,
    IterCoefficients,
    QContext,
    SzaszContext,
    UniformSamples,
    basis_eval,
    basis_integral,
    basis_integral_vector,
    basis_vector,
    bernstein_matrix,
    binomial,
    build_example8,
    derivative_eval,
    forward_difference,
    iterate_coefficients,
    iterated_basis,
    poisson_basis,
    q_basis,
    q_binomial,
    q_coefficients,
    q_number,
    quadrature,
)
from iterbern import functions

SAMPLES = UniformSamples(2, [0.0, 0.25, 1.0])


@pytest.mark.parametrize("build", [
    lambda: UniformSamples(5.0, np.ones(6)),
    lambda: UniformSamples.from_function(math.exp, 5.0),
    lambda: QContext(0.9, 5.0),
    lambda: quadrature(math.exp, 0.0, 1.0, 5.0, 2),
    lambda: q_binomial(5.0, 2, 0.9),
    lambda: IterCoefficients(5.0, 1, np.ones(6)),
    lambda: basis_eval(5, 2.0, 0.5),
    lambda: q_binomial(5, 2.5, 0.9),
], ids=["samples", "from_function", "QContext", "quadrature", "q_binomial",
        "IterCoefficients", "index", "q_binomial index"])
def test_float_degree_or_index_is_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_integer_degree_is_stored_as_int():
    for obj in (UniformSamples(np.int64(2), [0.0, 1.0, 2.0]), QContext(0.9, np.int64(2)),
                IterCoefficients(np.int64(2), 1, [0.0, 1.0, 2.0]), BernsteinMatrix(np.int64(2))):
        assert type(obj.n) is int


def duplicate_registration():
    functions._register(functions.registry_lookup("one"))


# One call per argument check in the library, each outside its domain.
BAD_CALLS = {
    "degree": lambda: basis_vector(-1, 0.5),
    "positive degree": lambda: UniformSamples(0, [1.0]),
    "matrix degree": lambda: bernstein_matrix(0),
    "point": lambda: basis_vector(2, 1.5),
    "basis index": lambda: basis_eval(3, 4, 0.5),
    "samples shape": lambda: UniformSamples(2, [0.0, 1.0]),
    "samples finite": lambda: UniformSamples(2, [0.0, math.nan, 1.0]),
    "binomial sign": lambda: binomial(-1, 0),
    "binomial index": lambda: binomial(3, 4),
    "coefficients shape": lambda: IterCoefficients(2, 1, [0.0, 1.0]),
    "coefficients finite": lambda: IterCoefficients(2, 1, [0.0, math.inf, 1.0]),
    "order": lambda: iterate_coefficients(SAMPLES, 2.5),
    "order cap": lambda: iterate_coefficients(SAMPLES, 10**6 + 1),
    "iterated index": lambda: iterated_basis(3, 5, 1, 0.5),
    "difference order": lambda: forward_difference([1.0, 2.0], -1, 0),
    "difference window": lambda: forward_difference([1.0, 2.0], 2, 0),
    "derivative sign": lambda: derivative_eval(SAMPLES, 1, -1, 0.5),
    "derivative order": lambda: derivative_eval(SAMPLES, 1, 3, 0.5),
    "integral index": lambda: basis_integral(3, -1, 0.5),
    "interval": lambda: quadrature(math.exp, 1.0, 0.0, 4, 1),
    "quadrature degree": lambda: quadrature(math.exp, 0.0, 1.0, 0, 1),
    "q": lambda: q_number(2, 0.0),
    "q range": lambda: QContext(2.0, 5),
    "q degree": lambda: QContext(0.9, 0),
    "q binomial degree": lambda: q_binomial(-1, 0, 0.9),
    "q index": lambda: q_basis(QContext(0.9, 4), 5, 0.5),
    "q shape": lambda: q_coefficients(QContext(0.9, 4), np.ones(4), 1),
    "q finite": lambda: q_coefficients(QContext(0.9, 4), [0, 1, math.nan, 1, 0], 1),
    "poisson point": lambda: poisson_basis(10, 0, -1.0),
    "poisson index": lambda: poisson_basis(10, -1, 1.0),
    "rate": lambda: SzaszContext(0),
    "x_max": lambda: SzaszContext(10, math.inf),
    "tail_tol": lambda: SzaszContext(10, 8.0, 1e-3),
    "tail mass": lambda: SzaszContext(10, 8.0, 1e-300),
    "rate cap": lambda: SzaszContext(2000, 8.0),
    "node cap": lambda: SzaszContext(1375, 8.0),
    "defect point": lambda: SzaszContext(10).partition_defect(-1.0),
    "example8 parameters": lambda: build_example8(-1.0, 0.05),
    "example8 radius": lambda: build_example8(0.5, 0.05),
    "registry duplicate": duplicate_registration,
    "rate nan": lambda: SzaszContext(math.nan),
    "rate below 1": lambda: SzaszContext(0.5),
    "poisson rate": lambda: poisson_basis(-1, 0, 1.0),
    "poisson rate nan": lambda: poisson_basis(math.nan, 0, 1.0),
    "poisson rate inf": lambda: poisson_basis(math.inf, 0, 1.0),
    "q nan": lambda: q_number(3, math.nan),
    "q inf": lambda: q_number(3, math.inf),
    "q binomial nan": lambda: q_binomial(5, 2, math.nan),
    "integral degree": lambda: basis_integral_vector(-1, 0.5),
    "poisson rate times point": lambda: poisson_basis(1e300, 1, 1e10),
    "poisson rate times point 1e200": lambda: poisson_basis(1e200, 1, 1e200),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_every_argument_error_is_an_argument_error(call):
    with pytest.raises(ArgumentError) as info:
        call()
    assert isinstance(info.value, ValueError)
