"""Bipartite pure-state entanglement and upper bounds on the entanglement
of superpositions with two or more components."""

from .core import (
    BipartitePureState,
    DensityMatrix,
    entanglement,
    partial_trace_a,
    partial_trace_b,
    shannon_entropy,
    von_neumann_entropy,
)
from .superposition import (
    SuperpositionSpec,
    combine,
    component_entanglements,
    squared_norm,
    superposition_entanglement,
)
from .bounds import (
    BoundReport,
    assistant_state_check,
    basis_matrix,
    bound_constrained,
    bound_minimized,
    bound_unconstrained,
    exact_biorthogonal_entanglement,
    is_biorthogonal,
    normalization_coeffs,
)
from .ensembles import (
    EnsembleConfig,
    RandomStream,
    constrained_coefficients,
    generate_spec,
    haar_state,
    haar_unitary,
    simplex_coefficients,
)
from .report import (
    CampaignSummary,
    TrialRecord,
    iter_trials,
    run_campaign,
    run_trial,
)
from .errors import (
    DegenerateStateError,
    DomainError,
    EntboundError,
    InvariantViolationError,
    PreconditionError,
    SchemaError,
    ShapeMismatchError,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitePureState",
    "BoundReport",
    "CampaignSummary",
    "DegenerateStateError",
    "DensityMatrix",
    "DomainError",
    "EnsembleConfig",
    "EntboundError",
    "InvariantViolationError",
    "PreconditionError",
    "RandomStream",
    "SchemaError",
    "ShapeMismatchError",
    "SuperpositionSpec",
    "TrialRecord",
    "assistant_state_check",
    "basis_matrix",
    "bound_constrained",
    "bound_minimized",
    "bound_unconstrained",
    "combine",
    "component_entanglements",
    "constrained_coefficients",
    "entanglement",
    "exact_biorthogonal_entanglement",
    "generate_spec",
    "haar_state",
    "haar_unitary",
    "is_biorthogonal",
    "iter_trials",
    "normalization_coeffs",
    "partial_trace_a",
    "partial_trace_b",
    "run_campaign",
    "run_trial",
    "shannon_entropy",
    "simplex_coefficients",
    "squared_norm",
    "superposition_entanglement",
    "von_neumann_entropy",
]
