"""Exact walk counting on McKay quivers and finite digraphs: tensor-power
multiplicities, centralizer-algebra dimensions, Poincare series, exponential
generating functions, Bratteli diagrams, and the abelian diagram basis --
every quantity computable by at least two independent routes."""

from .cyclotomic import CycNum, gauss_sum, gauss_sum_check, root_of_unity
from .errors import ConsistencyError, SpecError, UnsupportedQueryError
from .groups import (
    GroupData,
    ModuleChar,
    build_abelian,
    build_cyclic,
    build_gl2,
    build_sl2,
    build_symmetric,
    build_wreath_invariant,
    both_modules_gl2,
    both_modules_sl2,
    circulant_module,
    coordinate_module,
    monomial_module,
    paley_module,
    permutation_module,
    standard_module_cyclic,
)
from .polynomials import Polynomial, poly_det
from .quiver import (
    BratteliDiagram,
    bratteli,
    centralizer_dim,
    eigen_check,
    mckay_adjacency,
    walk_count_character,
)
from .series import (
    EgfTruncation,
    RatFunc,
    cramer_numerators,
    det_factorization_check,
    dynkin_quotient,
    egf_hyperbolic,
    egf_product,
    egf_scale_arg,
    poincare_character,
    poincare_cramer,
    walk_generating_function,
)

__version__ = "0.1.0"
