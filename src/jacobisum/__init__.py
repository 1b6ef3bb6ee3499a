"""Exact Jacobi-sum tables, axiom verification, and field reconstruction."""

from .abelian import GroupSpec, delta, dft, pairing
from .cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    root_power,
)
from .enumerator import (
    EnumerationResult,
    enumerate_jacobi,
    oracle_addition_tables,
    oracle_count,
)
from .ffield import FiniteField, build_field, is_prime
from .jacobi import (
    ApproxTable,
    JacobiTable,
    approximate,
    compute_jacobi,
    slice_function,
    table_from_support,
    twist_automorphism,
    twist_galois,
)
from .reconstructor import (
    AdditionTable,
    BooleanCase,
    FieldCase,
    FieldChecks,
    InconsistentTableError,
    ReconstructionReport,
    build_addition,
    classify_support,
    fourier_support,
    reconstruct,
    recover_support_map,
    recompute_table,
    verify_field,
)
from .verifier import (
    CheckResult,
    VerificationReport,
    check_cocycle_direct,
    check_cocycle_star,
    check_convolution_sum,
    check_symmetry,
    cocycle_direct_sides,
    cocycle_star_sides,
    convolution_sum_sides,
    slice_convolution_sides,
    verify_all,
)

__version__ = "0.1.0"
