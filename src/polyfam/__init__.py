"""Exact-arithmetic special-number families and a grid-based identity verifier."""

from .poly import Poly
from .rationals import DomainError, Rational, binomial, factorial, gen_binomial, parse_rational, rational_str
from .series import Series, binomial_power
from .stirling import StirlingTable, stirling1_unsigned, stirling2
from .families import (
    ScaledRational,
    apostol_bernoulli_higher,
    apostol_bernoulli_poly,
    apostol_euler_higher,
    apostol_euler_poly,
    bell,
    bernoulli_classical,
    bernoulli_higher,
    bernoulli_higher_poly,
    bernoulli_second_kind,
    complementary_bell,
    euler_classical,
    euler_higher,
    exponential_poly,
    fubini,
    general_geometric,
    geometric_poly,
    scaled,
)
from .identities import GridConfig, IdentityReport, REGISTRY, run_all, run_identity

__all__ = [
    "DomainError", "Rational", "binomial", "factorial", "gen_binomial",
    "parse_rational", "rational_str",
    "Poly", "Series", "binomial_power",
    "StirlingTable", "stirling2", "stirling1_unsigned",
    "ScaledRational", "scaled", "exponential_poly", "bell", "complementary_bell",
    "geometric_poly", "fubini", "general_geometric", "euler_classical", "euler_higher",
    "bernoulli_classical", "bernoulli_higher", "bernoulli_higher_poly",
    "bernoulli_second_kind", "apostol_bernoulli_higher", "apostol_bernoulli_poly",
    "apostol_euler_higher", "apostol_euler_poly",
    "GridConfig", "IdentityReport", "REGISTRY", "run_all", "run_identity",
]
