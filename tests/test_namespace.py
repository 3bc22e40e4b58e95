"""The package namespace: what `import evcalc` binds, and when.

Each check runs in a new interpreter, because this test process has already
used the package's names.
"""

import json
import subprocess
import sys

import evcalc
from conftest import src_env

ALL = [
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

# prints, as JSON, the evcalc submodules loaded and whether the hook is installed
STATE = "print(json.dumps([sorted(m for m in sys.modules if m.startswith('evcalc.')), '__getattr__' in vars(evcalc)]))"


def fresh(code: str):
    """The JSON lines code prints, run in a new interpreter on this checkout's evcalc."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code], capture_output=True, text=True, env=src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_all_is_the_published_list():
    assert evcalc.__all__ == ALL


def test_bare_import_loads_no_submodule():
    assert fresh(f"import evcalc\n{STATE}\nprint(json.dumps(dir(evcalc)))") == [[[], True], ALL]


def test_unknown_name_raises_attribute_error_before_and_after_the_hook():
    code = f"""
import evcalc
for name in ("no_such_name", "combine_interval", "no_such_name"):
    try:
        getattr(evcalc, name)
    except AttributeError as exc:
        print(json.dumps(str(exc)))
    {STATE}
"""
    missing = "module 'evcalc' has no attribute 'no_such_name'"
    loaded = ["evcalc." + m for m in ("binary_frame", "convergence", "errors", "evidence_scale", "lower_upper")]
    assert fresh(code) == [missing, [[], True], [loaded, False], missing, [loaded, False]]


def test_first_public_name_binds_every_name_and_removes_the_hook():
    code = f"""
import evcalc
evcalc.combine_interval
{STATE}
print(json.dumps([name for name in evcalc.__all__ if name not in vars(evcalc)]))
print(json.dumps([name for name in evcalc.__all__ if getattr(evcalc, name) is not
                  getattr(sys.modules["evcalc." + evcalc._SOURCE[name]], name)]))
print(json.dumps(dir(evcalc)))
"""
    (_, hook), unbound, elsewhere, listed = fresh(code)
    assert not hook
    assert unbound == elsewhere == []
    assert listed == ALL  # the submodules, now attributes too, stay out of dir


def test_star_import_binds_exactly_all():
    code = "before = set(globals())\nfrom evcalc import *\nprint(json.dumps(sorted(set(globals()) - before - {'before'})))"
    assert fresh(code) == [ALL]
