"""Exact computations in the homotopy category of matrix factorizations.

The package computes with pairs of polynomial matrices (p0, p1) whose
products both equal W times the identity: shifts, cones, homotopy
classes of chain maps, finite-group equivariant structures for diagonal
abelian actions, and the cokernel modules these factorizations present
over the hypersurface ring.  All arithmetic is exact (rationals or a
prime field); graded answers are certified, truncated ones say so.
"""

from .action import GroupAction, cyclic_action
from .equivariant import (
    EquivariantStructure,
    check_equivariant,
    enumerate_structures,
    equivariant_hom_space,
    is_equivariant_map,
    isotypic_decompose,
    reynolds,
    reynolds_homotopy,
    twist_orbits,
)
from .errors import GradingError, MfcatError, ParseError, UsageError
from .factorization import (
    Cone,
    GradedFreeModule,
    Homotopy,
    MatrixFactorization,
    MfMorphism,
    cone,
    direct_sum,
    elementary_factorization,
    koszul_factorization,
    trivial_brick,
    w_multiple_homotopy,
    zero_factorization,
)
from .fields import QQ, PrimeField, field_from_name
from .homotopy import (
    HomSpace,
    default_window,
    find_homotopy,
    hom_complex_differential,
    hom_space,
    homotopy_equivalence_data,
    is_contractible,
    is_homotopy_equivalence,
    is_null_homotopic,
    random_chain_map,
    solve_null_homotopy,
    truncated_hom_space,
)
from .matrices import PolyMatrix, hstack, vstack
from .poly import (
    Polynomial,
    WeightSystem,
    detect_weights,
    format_poly,
    monomials_of_weighted_degree,
    monomials_up_to_total_degree,
    parse_poly,
)
from .singcat import (
    BrickDecomposition,
    HypersurfaceModule,
    brick_presentation_normal_form,
    cok,
    cok_g,
    cok_morphism,
    homotopy_decomposition,
    lift_module_map,
    stable_hom,
    stable_hom_g,
    two_periodicity_check,
)
from .workspace import Workspace, parse_workspace

__version__ = "0.1.0"

__all__ = [
    "BrickDecomposition",
    "Cone",
    "EquivariantStructure",
    "GradedFreeModule",
    "GradingError",
    "GroupAction",
    "HomSpace",
    "Homotopy",
    "HypersurfaceModule",
    "MatrixFactorization",
    "MfMorphism",
    "MfcatError",
    "ParseError",
    "PolyMatrix",
    "Polynomial",
    "PrimeField",
    "QQ",
    "UsageError",
    "WeightSystem",
    "Workspace",
    "brick_presentation_normal_form",
    "check_equivariant",
    "cok",
    "cok_g",
    "cok_morphism",
    "cone",
    "cyclic_action",
    "default_window",
    "detect_weights",
    "direct_sum",
    "elementary_factorization",
    "enumerate_structures",
    "equivariant_hom_space",
    "field_from_name",
    "find_homotopy",
    "format_poly",
    "monomials_of_weighted_degree",
    "monomials_up_to_total_degree",
    "hom_complex_differential",
    "hom_space",
    "homotopy_decomposition",
    "homotopy_equivalence_data",
    "hstack",
    "is_contractible",
    "is_equivariant_map",
    "is_homotopy_equivalence",
    "is_null_homotopic",
    "isotypic_decompose",
    "koszul_factorization",
    "lift_module_map",
    "parse_poly",
    "parse_workspace",
    "random_chain_map",
    "reynolds",
    "reynolds_homotopy",
    "solve_null_homotopy",
    "stable_hom",
    "stable_hom_g",
    "trivial_brick",
    "truncated_hom_space",
    "twist_orbits",
    "two_periodicity_check",
    "vstack",
    "w_multiple_homotopy",
    "zero_factorization",
]
