"""Iterated Bernstein polynomial approximation, with derivatives,
integrals, an integral-free quadrature rule, and the Szasz-Mirakyan and
q-Bernstein generalizations."""

from .core import (
    BernsteinMatrix,
    ConditioningError,
    UniformSamples,
    basis_eval,
    basis_vector,
    bernstein_matrix,
    binomial,
)
from .iterated import (
    INFINITY,
    IterCoefficients,
    LIMIT_DEGREE_CAP,
    bernstein_apply,
    coefficients,
    error_estimate,
    eval_iterated,
    iterate_coefficients,
    iterated_basis,
    limit_coefficients,
)
from .calculus import (
    basis_integral,
    basis_integral_vector,
    derivative_eval,
    forward_difference,
    integral_eval,
    quadrature,
)
from .szasz import (
    SzaszContext,
    poisson_basis,
    szasz_apply,
    szasz_coefficients,
    szasz_eval,
    szasz_iterated,
)
from .qbern import (
    QContext,
    q_apply,
    q_basis,
    q_binomial,
    q_coefficients,
    q_eval,
    q_iterated,
    q_number,
)
from .functions import NamedFunction, build_example8, registry_lookup, registry_names

__version__ = "0.1.0"

__all__ = [
    "BernsteinMatrix",
    "ConditioningError",
    "INFINITY",
    "IterCoefficients",
    "LIMIT_DEGREE_CAP",
    "NamedFunction",
    "QContext",
    "SzaszContext",
    "UniformSamples",
    "basis_eval",
    "basis_integral",
    "basis_integral_vector",
    "basis_vector",
    "bernstein_apply",
    "bernstein_matrix",
    "binomial",
    "build_example8",
    "coefficients",
    "derivative_eval",
    "error_estimate",
    "eval_iterated",
    "forward_difference",
    "integral_eval",
    "iterate_coefficients",
    "iterated_basis",
    "limit_coefficients",
    "poisson_basis",
    "q_apply",
    "q_basis",
    "q_binomial",
    "q_coefficients",
    "q_eval",
    "q_iterated",
    "q_number",
    "quadrature",
    "registry_lookup",
    "registry_names",
    "szasz_apply",
    "szasz_coefficients",
    "szasz_eval",
    "szasz_iterated",
]
