"""Exact-arithmetic toolkit for Lie conformal algebras.

Structure tables over sparse polynomials with Gaussian-rational
coefficients, axiom checking as exact polynomial identities, conformal
modules, annihilation Lie algebras and weight spaces, the rank-one
intertwiner equation solver, and the graded admissibility scan.
"""

from .scalars import I, ONE, Scalar, ZERO, sc
from .poly import D, L, M, MultiPoly
from .parsing import ParseError, parse_poly, parse_scalar
from .algebra import (
    AlgebraElement,
    ConformalAlgebra,
    InvalidStructure,
    TruncationExceeded,
    abelian_constants,
    block,
    bracket,
    check_algebra,
    check_jacobi,
    check_skew,
    current,
    jacobi_defect,
    jth_product,
    map_virasoro,
    map_virasoro_poly,
    nonabelian2_constants,
    sl2_constants,
    skew_image,
    truncated_polynomial_products,
    vir_semidirect_current,
    virasoro,
)
from .modules import (
    ConformalModule,
    InvalidParams,
    KernelResult,
    MissingAction,
    action_kernel,
    apply_action,
    apply_element_action,
    check_module,
    rank_one_theorem_module,
    rank_one_vir,
)
from .polymatrix import PolyMatrix, SmithDecomposition, smith_normal_form, torsion_split
from .annihilation import (
    AnnihAlgebra,
    NonTriangularWindow,
    WeightReport,
    annih_bracket,
    check_annih_lie,
    module_action_n,
    weight_spaces,
)
from .funceq import (
    DegreeOffsetResult,
    FuncEqInstance,
    NotASolution,
    SolutionBasis,
    bcsx_variant_solver,
    degree_offset,
    solve_homogeneous,
    solve_intertwiner,
    verify_solution_table,
)
from .grading import (
    GradedProfile,
    GradingError,
    HypothesisViolated,
    MalformedBracket,
    NotVirasoroAtZero,
    ScanResult,
    assemble_witness_algebra,
    check_b_linear,
    default_grid,
    profile_from_table,
    scan_a1,
    scan_grid,
    split_I0_I1,
)
from .reports import Report
from .specfile import DuplicateDefinition, SpecFile, UnknownGenerator, parse_spec

__version__ = "0.1.0"
