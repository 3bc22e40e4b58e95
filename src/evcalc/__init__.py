"""Evidence calculi on the two-hypothesis frame.

Two interconvertible calculi for combining uncertain evidence about a single
hypothesis: binary-frame belief functions under Dempster's rule with their
weight-of-evidence scale, and lower/upper frequency intervals whose
combination rule is plain addition of evidence counts.  A convergence
laboratory runs both along the same outcome stream to compare their limits.

`import evcalc` compiles no submodule.  The first public name used imports
them all and binds every name here (PEP 562), after which the hook removes
itself, so later lookups are plain module attributes.
"""

# public name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "binary_frame": (
            "BeliefInterval", "CONFLICT_TOLERANCE", "MassAssignment", "SUM_TOLERANCE", "bernoulli_combine",
            "combine_interval", "combine_mass", "interval_to_mass", "mass_to_interval",
        ),
        "convergence": (
            "LimitReport", "SplitMix64", "StreamSpec", "Trajectory", "TrajectoryRow", "check_limits",
            "generate_stream", "run_dual_track",
        ),
        "errors": ("InfiniteEvidenceError", "TotalConflictError", "ValidationError", "ZeroEvidenceError"),
        "evidence_scale": (
            "EvidenceWeights", "UnitWeights", "add_weights", "belief_from_weights", "classify_limit", "delta_limit",
            "multiply_combine", "positive_proportion", "support_from_weight", "weights_from_belief",
        ),
        "lower_upper": (
            "ConflictReport", "EvidenceCounts", "FrequencyInterval", "belpl_from_lu", "combine_lu", "combine_points",
            "combine_with_point", "counts_from_interval", "counts_from_weights", "frequency", "ignorance",
            "interval_from_counts", "lu_from_belpl", "lu_from_weights", "pool_lu", "weights_from_counts",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SOURCE)


def __dir__():
    return __all__


def __getattr__(name):
    # A module whose dict holds __getattr__ keeps CPython from specializing
    # attribute loads on it, so the hook binds every name at once and goes.
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for public, module in _SOURCE.items():
        namespace[public] = getattr(import_module(f".{module}", __name__), public)
    namespace.pop("__getattr__", None)  # a concurrent first lookup may have removed it
    return namespace[name]
