"""Symbolic-numeric toolkit for common zeros of exponential transforms.

Builds the explicit Bezoutiant of two transforms
F_k(z) = int_0^a e^{izt} conj(Psi_k(t)) dt with polynomial densities,
decides whether the pair can share zeros, and verifies every decision
independently with exact polynomial identities and argument-principle
zero localization.
"""

__version__ = "0.1.0"

from .exact import GR, GaussianRational, MPoly, Poly, parse_rational
from .kernel import (
    BezoutKernel,
    MFunctions,
    NormalizedPair,
    build_kernel,
    build_m_functions,
    check_adjoint_identity,
    normalize_pair,
)
from .symbol import (
    CoincidenceCaseError,
    DiffOperator,
    OrderViolationError,
    TieCancellationError,
    Verdict,
    decide,
    l_operator,
    monomial_density,
    monomial_order,
    v_symbol,
)
from .transform import (
    ClosedTransform,
    closed_form,
    reflected_transform,
)
from .zeros import (
    SearchRect,
    ZeroSet,
    bessel_reference,
    compare_zero_sets,
    count_zeros,
    locate_zeros,
    structure_checks,
)

__all__ = [
    "GR",
    "GaussianRational",
    "MPoly",
    "Poly",
    "parse_rational",
    "BezoutKernel",
    "MFunctions",
    "NormalizedPair",
    "build_kernel",
    "build_m_functions",
    "check_adjoint_identity",
    "normalize_pair",
    "CoincidenceCaseError",
    "DiffOperator",
    "OrderViolationError",
    "TieCancellationError",
    "Verdict",
    "decide",
    "l_operator",
    "monomial_density",
    "monomial_order",
    "v_symbol",
    "ClosedTransform",
    "closed_form",
    "reflected_transform",
    "SearchRect",
    "ZeroSet",
    "bessel_reference",
    "compare_zero_sets",
    "count_zeros",
    "locate_zeros",
    "structure_checks",
]
