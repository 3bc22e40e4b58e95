"""Evidence calculi on the two-hypothesis frame.

Two interconvertible calculi for combining uncertain evidence about a single
hypothesis: binary-frame belief functions under Dempster's rule with their
weight-of-evidence scale, and lower/upper frequency intervals whose
combination rule is plain addition of evidence counts.  A convergence
laboratory runs both along the same outcome stream to compare their limits.
"""

from .binary_frame import (
    BeliefInterval,
    MassAssignment,
    SUM_TOLERANCE,
    interval_to_mass,
    mass_to_interval,
)
from .convergence import (
    LimitReport,
    StreamSpec,
    Trajectory,
    TrajectoryRow,
    check_limits,
    generate_stream,
    run_dual_track,
)
from .dempster import (
    CONFLICT_TOLERANCE,
    bernoulli_combine,
    combine_interval,
    combine_mass,
)
from .errors import (
    InfiniteEvidenceError,
    TotalConflictError,
    ValidationError,
    ZeroEvidenceError,
)
from .evidence_scale import (
    EvidenceWeights,
    UnitWeights,
    add_weights,
    belief_from_weights,
    classify_limit,
    delta_limit,
    multiply_combine,
    positive_proportion,
    support_from_weight,
    weights_from_belief,
)
from .lower_upper import (
    ConflictReport,
    EvidenceCounts,
    FrequencyInterval,
    belpl_from_lu,
    combine_lu,
    combine_points,
    combine_with_point,
    counts_from_interval,
    counts_from_weights,
    frequency,
    ignorance,
    interval_from_counts,
    lu_from_belpl,
    lu_from_weights,
    pool_lu,
    weights_from_counts,
)
from .rng import SplitMix64

__all__ = [
    "BeliefInterval",
    "CONFLICT_TOLERANCE",
    "ConflictReport",
    "EvidenceCounts",
    "EvidenceWeights",
    "FrequencyInterval",
    "InfiniteEvidenceError",
    "LimitReport",
    "MassAssignment",
    "SUM_TOLERANCE",
    "SplitMix64",
    "StreamSpec",
    "TotalConflictError",
    "Trajectory",
    "TrajectoryRow",
    "UnitWeights",
    "ValidationError",
    "ZeroEvidenceError",
    "add_weights",
    "belief_from_weights",
    "belpl_from_lu",
    "bernoulli_combine",
    "check_limits",
    "classify_limit",
    "combine_interval",
    "combine_lu",
    "combine_mass",
    "combine_points",
    "combine_with_point",
    "counts_from_interval",
    "counts_from_weights",
    "delta_limit",
    "frequency",
    "generate_stream",
    "ignorance",
    "interval_from_counts",
    "interval_to_mass",
    "lu_from_belpl",
    "lu_from_weights",
    "mass_to_interval",
    "multiply_combine",
    "pool_lu",
    "positive_proportion",
    "run_dual_track",
    "support_from_weight",
    "weights_from_belief",
    "weights_from_counts",
]
