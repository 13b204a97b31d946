"""Exact Birkhoff normal forms of polynomial Hamiltonians.

Three independent pipelines (degree-by-degree Lie series, the one-degree-of-
freedom closed form, and the weighted-binary-tree formula) over exact
Gaussian-rational or symbolic coefficients, cross-validated term by term.
"""

from .errors import InternalCheckError, InvalidCodeError, ParseError, UsageError
from .lie import (
    NormalizationResult,
    exp_lie,
    lie_normalize,
    random_generator,
    random_symplectic_conjugate,
)
from .onedof import (
    OneDofResult,
    WSeries,
    average,
    compute_S,
    invert_unit_series,
    is_linearizable,
    nf_from_S,
    onedof_normal_form,
    partition_normal_form,
    revert_wseries,
)
from .operators import (
    FreqVector,
    homological_operator,
    image_projection,
    partial_inverse,
    resonant_pairs,
    resonant_projection,
    validate_hamiltonian,
)
from .scalars import (
    GAUSSIAN_ONE,
    GAUSSIAN_RING,
    GAUSSIAN_ZERO,
    CoefficientRing,
    GaussianRational,
    GaussianRing,
    SymRing,
    SymScalar,
    evaluation_map,
    format_rational,
    parse_rational,
)
from .series import ExponentPair, PolySeries, compositions, from_json_terms, make_pair
from .structure import (
    StructureReport,
    SymbolicNormalForm,
    check_structure,
    specialize,
    symbolic_normalize,
)
from .treeforms import (
    TreesResult,
    chain_weights,
    form_by_recursion,
    form_by_trees,
    nf_via_trees,
    total_tree_weight,
    total_tree_weight_by_recursion,
    tree_bracket,
    tree_weight,
    tree_weight_by_factorization,
)
from .trees import (
    LEAF,
    Tree,
    all_trees,
    catalan_count,
    code_via_factorization,
    format_code,
    from_code,
    parse_code,
    right_factors,
    to_code,
    validate_code,
)

__version__ = "0.1.0"
