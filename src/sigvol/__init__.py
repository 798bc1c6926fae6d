"""Exact signature polynomials of piecewise linear paths, positive-matrix
stabilizers, and graded bases of permutation-invariant signature elements."""

from .exactq import QQ, MatrixBuilder, SparseMatrixQ, SubspaceQ, det_q, intersect, nullspace, qq
from .freealg import (
    TensorElement,
    antipode,
    concat,
    element_to_text,
    lyndon_words,
    parse_element,
    shuffle,
    shuffle_power,
    volume_element,
)
from .invariants import (
    GradedBasis,
    conjecture_evidence,
    dim_image,
    inv_d_space,
    invariant_space,
    is_in_kernel,
    is_invariant,
    kernel_space,
    loopclosure_membership,
    loopclosure_space,
    timerev_space,
    words_of_degree,
)
from .posgeom import (
    CyclicInstance,
    PermGroup,
    Permutation,
    gale_facets,
    is_positive_matrix,
    moment_curve_instance,
    polytope_volume,
    signed_volume,
    stabilizer_bruteforce,
    stabilizer_structural,
)
from .sigpoly import (
    IncrementPolynomial,
    PLPath,
    SigPolyCalculator,
    TruncatedSignature,
    chen_product,
    pair,
    parse_polynomial,
    path_pair,
    pl_signature,
    polynomial_to_text,
    signature_polynomial,
    substitute_collinear,
)

__version__ = "0.1.0"
