"""lcpq: exact classification of structured matrices for the Q-property.

The Q-property asks whether the linear complementarity problem LCP(A, q)
is solvable for every q.  This package decides it for several structured
families (triangular, triangular-plus-row, bidiagonal-southwest, 2x2) by
closed-form sign and determinant rules, cross-checks every verdict against
a brute-force rational oracle, and lifts matrix problems to symmetric-cone
problems on Euclidean Jordan algebras.
"""

from .classes import (
    NO,
    UNDECIDED,
    YES,
    Verdict,
    is_E,
    is_E0,
    is_P,
    is_R0,
    is_Rd,
    is_Rstar,
    is_S,
    q_oracle,
)
from .classifier import (
    classify,
    classify_2x2,
    classify_bdsw_type1,
    classify_bdsw_type2,
    classify_bdsw_type3,
    classify_bdsw_type4,
    classify_by_rules,
    classify_triangular,
)
from .errors import (
    EnumerationCapError,
    LcpqError,
    MatrixFormatError,
    SingularPivotError,
    StructureError,
)
from .generate import GENERATOR_TYPES, generate
from .lcp import LcpInstance, LcpSolution, degree, enumeration_cap, is_solvable, solve_lcp
from .matrices import RationalMatrix, determinant, inverse, parse_matrix, parse_vector
from .pivot import ppt, schur_complement
from .simplex import FeasibilitySystem, solve_feasibility
from .structure import StructureClass, detect_structure, is_bdsw_shape

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
