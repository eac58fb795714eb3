"""Oscillator Lie groups with bi-invariant Lorentzian metrics.

Geodesics in closed form and by integration, cocompact lattice families
with exact membership, closed-geodesic classification on the compact
quotients, and the isometry/normalizer toolkit.
"""

from .algebra import (
    AlgebraVector,
    CausalClass,
    FrequencyList,
    bracket,
    causal_class,
    causal_quantity,
    gram_matrix,
    inner,
)
from .exact import ExactScalar, PI, as_exact, parse_exact, pi_poly_sign
from .geodesics import (
    Geodesic,
    christoffel,
    christoffel_table_report,
    christoffel_tabulated,
    eval_geodesic,
    eval_geodesic_exact,
    eval_geodesic_velocity,
    geodesic_rhs,
    integrate_geodesic,
    integrate_geodesic_batch,
    metric_at,
    metric_matrix,
)
from .group import (
    ExactModeUnsupportedAngle,
    GroupElement,
    conjugate,
    invert,
    multiply,
    rotation,
)
from .isometries import (
    Composite,
    Inner,
    Inversion,
    IsotropyElement,
    LeftTranslation,
    ShapeMismatch,
    Theta,
    apply_isometry,
    aut_intersection_check,
    check_local_isometry,
    is_fiber_preserving,
    isotropy_matrix,
    psi_decompose,
    semidirect_product,
    structure_relations_check,
    validate_theta,
)
from .lattices import (
    Dim4Family,
    Dim6Family,
    GeneratorList,
    LatticeProfile,
    LatticeSpec,
    MembershipUndecidable,
    ProductWithLine,
    Twisted,
    UnsupportedSpec,
    central_element,
    contains,
    profile,
    pure_t_element,
)
from .lattices import from_json as lattice_from_json
from .normalizers import (
    NormalizerTable,
    in_normalizer,
    normalizer_oracle,
    normalizer_table_report,
    verification_grid,
)
from .quotient import (
    CertificateVerificationFailed,
    ClosedGeodesicCertificate,
    ClosureDecision,
    LightlikeVerdict,
    ProductLineVerdict,
    classify_lightlike,
    closed_timelike_and_spacelike,
    decide_closed,
    product_line_lightlike,
    search_closed,
)

__version__ = "0.1.0"
