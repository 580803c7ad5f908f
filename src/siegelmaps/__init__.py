"""Explicit totally geodesic embeddings of complex balls into Siegel space.

The package constructs the classical holomorphic embeddings of the unit
ball into the bounded model of the Siegel upper half space (standard,
connecting, and exterior-power factors and their diagonal direct sums),
compiles each factor into a fixed matrix and its pseudoinverse, the one
compiled form that embeds and retracts, and verifies the structural claims
behind them (left-inverse identity, membership closure, Kobayashi isometry,
signature bookkeeping, linearity against the factor constructions) by
seeded property testing.
"""

from __future__ import annotations

from . import errors
from .domains import (
    BallPoint,
    DomainKind,
    DomainPoint,
    DomainShape,
    MembershipResult,
    MembershipStatus,
    Transvection,
    ball_distance,
    ball_point,
    cayley,
    cayley_to_bounded,
    cayley_to_siegel,
    kobayashi_distance,
    membership,
    siegel_shape,
    transvection_to_origin,
    type_i_shape,
    type_iii_shape,
)
from .embeddings import (
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    direct_sum_embed,
    enumerate_specs,
    exterior_power_embed,
    factor_catalog,
    factor_form,
    linearize,
)
from .exterior import (
    WedgeBasis,
    balanced_symmetric,
    complement,
    conjugation_twice_unit,
    conjugation_unit,
    induced_form,
    multi_indices,
    perm_sign,
    signature,
    wedge_basis,
)
from .harness import run_suite, run_verification
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    as_complex_matrix,
    hermitian_eigenvalues,
    singular_values,
    solve_right,
)
from .report import HarnessConfig, Report, SuiteResult
from .retractions import (
    SandwichRecord,
    isometry_sandwich,
    retract_direct_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BallPoint",
    "DEFAULT_TOLERANCE",
    "DomainKind",
    "DomainPoint",
    "DomainShape",
    "EmbeddingSpec",
    "FactorKind",
    "FactorSpec",
    "HarnessConfig",
    "MembershipResult",
    "MembershipStatus",
    "Report",
    "SandwichRecord",
    "SuiteResult",
    "Tolerance",
    "Transvection",
    "WedgeBasis",
    "as_complex_matrix",
    "balanced_symmetric",
    "ball_distance",
    "ball_point",
    "cayley",
    "cayley_to_bounded",
    "cayley_to_siegel",
    "complement",
    "conjugation_twice_unit",
    "conjugation_unit",
    "direct_sum_embed",
    "enumerate_specs",
    "errors",
    "exterior_power_embed",
    "factor_catalog",
    "factor_form",
    "hermitian_eigenvalues",
    "induced_form",
    "isometry_sandwich",
    "kobayashi_distance",
    "linearize",
    "membership",
    "multi_indices",
    "perm_sign",
    "retract_direct_sum",
    "run_suite",
    "run_verification",
    "siegel_shape",
    "signature",
    "singular_values",
    "solve_right",
    "transvection_to_origin",
    "type_i_shape",
    "type_iii_shape",
    "wedge_basis",
]
