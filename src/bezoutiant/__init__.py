"""Symbolic-numeric toolkit for common zeros of exponential transforms.

Builds the explicit Bezoutiant of two transforms
F_k(z) = int_0^a e^{izt} conj(Psi_k(t)) dt with polynomial densities,
decides whether the pair can share zeros, and verifies every decision
independently with exact polynomial identities and argument-principle
zero localization.  Import the submodules (`bezoutiant.exact`,
`bezoutiant.symbol`, `bezoutiant.cli`, ...) directly; the package itself
imports none of them, so `bezoutiant.exact` loads no numpy.
"""

__version__ = "0.1.0"
