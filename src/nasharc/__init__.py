"""Exact combinatorics of surface resolutions and arc-adjacency obstructions.

The package computes, in exact rational arithmetic throughout:

* intersection lattices of decorated resolution dual graphs, their
  definiteness and inverse sign patterns (``dual_graphs``, ``exact_linalg``);
* blow-up clusters over a smooth surface point, their proximity matrices,
  canonical coefficients and minimal joint models (``clusters``);
* divisorial valuations, order-of-vanishing oracles and comparisons
  (``valuations``, ``polynomials``);
* obstruction verdicts for arc-space adjacencies, with the returns linear
  system and a persistent verdict store (``obstructions``, ``canonical``);
* Euler-characteristic contradiction certificates (``euler_bounds``);
* the relative-canonical lifting bookkeeping (``lifting``).

A command line front end lives in ``nasharc.cli``.
"""

from types import ModuleType as _ModuleType

from .canonical import CanonicalKey, canonical_key
from .clusters import (
    BlowupCluster,
    ClusterPoint,
    canonical_coeffs,
    closure_indices,
    cluster_fixture,
    cluster_fixture_names,
    cluster_from_doc,
    enumerate_proximity_structures,
    enumerate_tangent_assignments,
    germ_touch_count,
    intersection_from_proximity,
    minimal_joint_model,
    pair_graph,
    proximity_matrix,
    simulate,
)
from .dual_graphs import (
    DualGraph,
    GraphVertex,
    fixture_names,
    graph_from_doc,
    intersection_matrix,
    standard_fixture,
    validate_graph_doc,
)
from .errors import (
    InternalInvariantError,
    KnowledgeBaseConflict,
    KnowledgeBaseError,
    NashArcError,
    SingularMatrixError,
    ValidationError,
)
from .euler_bounds import (
    ContradictionCertificate,
    EulerInput,
    b0_bound,
    balls_bound,
    contradiction_certificate,
    final_bound,
    tubes_bound,
)
from .exact_linalg import (
    ExactMatrix,
    InverseSignReport,
    check_inverse_nonpositive,
    is_negative_definite,
)
from .lifting import LiftingVerdict, WedgeNumericalModel, lifting_verdict, solve_b, verify_numerical
from .obstructions import (
    CurvetteWitness,
    KnowledgeBase,
    ObstructionStatus,
    ObstructionVerdict,
    OrderWitness,
    ReturnsSystemResult,
    SolutionWitness,
    adjacency_table,
    refined_valuative_obstruction,
    returns_system,
    valuative_obstruction,
)
from .polynomials import Poly2, parse_poly
from .rationals import INF, format_rational, format_tangent, parse_rational, parse_tangent
from .valuations import (
    Comparison,
    cluster_matrix,
    compare,
    curvette_order_rows,
    curvette_polynomial,
    multiplicities,
    ord_poly,
    strict_transform_profile,
)

__version__ = "0.1.0"

# every public name bound above, so the import block is the one list of them
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
