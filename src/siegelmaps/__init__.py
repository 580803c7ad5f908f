"""Explicit totally geodesic embeddings of complex balls into Siegel space.

The package constructs the classical holomorphic embeddings of the unit
ball into the bounded model of the Siegel upper half space (standard,
connecting, and exterior-power factors and their diagonal direct sums),
compiles each factor from the wedge basis into a fixed matrix and its
pseudoinverse, the one compiled form that embeds and retracts, and verifies
the claims behind them (left-inverse identity, membership closure, Kobayashi
isometry, signature bookkeeping, the compiled forms against the wedge
constructions they are built apart from) by seeded property testing.
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
    ball_point,
    cayley,
    cayley_to_bounded,
    cayley_to_siegel,
    kobayashi_distance,
    membership,
    siegel_shape,
    type_i_shape,
    type_iii_shape,
)
from .embeddings import (
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    direct_sum_embed,
    enumerate_specs,
    factor_form,
    linearize,
)
from .exterior import balanced_symmetric, signature
from .harness import run_suite, run_verification
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    as_complex_matrix,
    singular_values,
)
from .report import HarnessConfig, Report, SuiteResult
from .retractions import isometry_sandwich, retract_direct_sum

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
    "SuiteResult",
    "Tolerance",
    "as_complex_matrix",
    "balanced_symmetric",
    "ball_point",
    "cayley",
    "cayley_to_bounded",
    "cayley_to_siegel",
    "direct_sum_embed",
    "enumerate_specs",
    "errors",
    "factor_form",
    "isometry_sandwich",
    "kobayashi_distance",
    "linearize",
    "membership",
    "retract_direct_sum",
    "run_suite",
    "run_verification",
    "siegel_shape",
    "signature",
    "singular_values",
    "type_i_shape",
    "type_iii_shape",
]
