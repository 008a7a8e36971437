"""Exact rigidity indices of monodromy tuples and their transform local data."""

from .errors import (
    CatalogError,
    DimensionMismatchError,
    GenerationError,
    HypothesisViolationError,
    InvalidMonodromyError,
    InvalidPairError,
    NonRealizableError,
    PairPreconditionError,
    RigidityLabError,
    ValidationError,
)
from .exact_linalg import (
    QMatrix,
    centralizer_dimension,
    fixed_space_dim,
    invariant_factors,
    similar,
)
from .fourier import preservation_details, rig_fourier, stationary_phase
from .local_systems import (
    is_irreducible,
    monodromy_tuple,
    random_tuple,
    rigidity_index,
    rigidity_report,
)
from .theta_pairs import centralizer_identity_check, from_star

__all__ = [
    "CatalogError",
    "DimensionMismatchError",
    "GenerationError",
    "HypothesisViolationError",
    "InvalidMonodromyError",
    "InvalidPairError",
    "NonRealizableError",
    "PairPreconditionError",
    "QMatrix",
    "RigidityLabError",
    "ValidationError",
    "centralizer_dimension",
    "centralizer_identity_check",
    "fixed_space_dim",
    "from_star",
    "invariant_factors",
    "is_irreducible",
    "monodromy_tuple",
    "preservation_details",
    "random_tuple",
    "rig_fourier",
    "rigidity_index",
    "rigidity_report",
    "similar",
    "stationary_phase",
]
