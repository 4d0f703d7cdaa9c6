"""Exact arithmetic substrate: Q/Z residues, cyclotomic numbers, finite fields."""

from .cyc import Cyc, cyclotomic_poly, zeta
from .fq import FieldSpec, FqMatrix, companion_matrix, field, kernel_dim
from .numth import (
    divisors,
    euler_phi,
    factor,
    is_prime,
    is_prime_power,
    least_prime_divisor,
    mult_order,
    p_part,
    p_prime_part,
    perfect_power,
)
from .unity import UnityClass, unity

__all__ = [
    "Cyc",
    "cyclotomic_poly",
    "zeta",
    "FieldSpec",
    "FqMatrix",
    "companion_matrix",
    "field",
    "kernel_dim",
    "divisors",
    "euler_phi",
    "factor",
    "is_prime",
    "is_prime_power",
    "least_prime_divisor",
    "mult_order",
    "p_part",
    "p_prime_part",
    "perfect_power",
    "UnityClass",
    "unity",
]
