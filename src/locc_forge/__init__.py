"""locc-forge: LOCC convertibility, protocol synthesis, and end-to-end
verification for multipartite pure states in generalized Schmidt form."""

from .errors import (
    CapExceeded,
    ConversionImpossible,
    DecompositionFailed,
    InstanceError,
    InternalContradiction,
    LoccForgeError,
    ZeroBranch,
)
from .majorization import (
    Check,
    PermutationMixture,
    ProbVector,
    first_violation,
    is_majorized,
    mixture_for,
    pad_to,
)
from .probabilistic import (
    CatalysisResult,
    ConclusivePlan,
    catalysis_search,
    intermediate_state,
    multicopy_check,
    multicopy_profile,
    pmax,
    run_conclusive,
)
from .protocol import MeasurementPlan, build_plan
from .simulator import (
    DenseState,
    GeneralizedSchmidtState,
    GsdExtraction,
    GsdWitness,
    Transcript,
    extract_gsd,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CatalysisResult",
    "Check",
    "ConclusivePlan",
    "ConversionImpossible",
    "DecompositionFailed",
    "DenseState",
    "GeneralizedSchmidtState",
    "GsdExtraction",
    "GsdWitness",
    "InstanceError",
    "InternalContradiction",
    "LoccForgeError",
    "MeasurementPlan",
    "PermutationMixture",
    "ProbVector",
    "Transcript",
    "ZeroBranch",
    "build_plan",
    "catalysis_search",
    "extract_gsd",
    "first_violation",
    "intermediate_state",
    "is_majorized",
    "mixture_for",
    "multicopy_check",
    "multicopy_profile",
    "pad_to",
    "pmax",
    "run_conclusive",
    "run_protocol",
]
