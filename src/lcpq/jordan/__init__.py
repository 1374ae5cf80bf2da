"""Euclidean Jordan algebra layer: algebras, transforms, symmetric-cone LCPs.

Works in floating point with explicit tolerances, unlike the exact rational
matrix core.  Two algebras are provided: R^n with the componentwise product
and the nonnegative orthant, and real symmetric m x m matrices with the
symmetrised product and the positive semidefinite cone.

The transforms are the matrix-based ones along a Jordan frame that the
paper's results concern: the embedding hat(A) of a square matrix and the
rank-one map x -> <b, x> a, with the Peirce decomposition along a frame.
"""

from .algebra import (
    Algebra,
    JordanElement,
    JordanFrame,
    element_from_eigenvalues,
    identity_element,
    jordan_product,
    random_element,
    random_frame,
    spectral_decomposition,
    standard_frame,
    sym_algebra,
    trace_inner_product,
)
from .transforms import (
    LinearTransform,
    bracket,
    hat_transform,
    hat_vector,
    peirce_decompose,
    rank_one,
)
from .sclcp import (
    EmbedOutcome,
    ScLcpSolutionCheck,
    classify_rank_one_exact,
    classify_rank_one_q,
    embed_solve,
    sample_positivity_violation,
    verify_sc_solution,
)
from .checks import IDENTITY_NAMES, identity_residuals

__all__ = [name for name in dir() if not name.startswith("_")]
