"""shiftlab: an exact-arithmetic laboratory for sequence entropy,
combinatorial independence, and mean sensitivity on subshifts of finite type
with Markov measures."""

from .symbolic import (
    BridgedBlocks,
    Cylinder,
    CylinderUnion,
    DistanceResult,
    EmptyIntersection,
    EventuallyPeriodic,
    SampledWindow,
    Sft,
    cylinder,
    diam_of_set,
    full_shift,
    metric_distance,
    parse_word,
    point_in_set,
    resolve_constraints,
    shift_point,
    whole_space,
)
from .measures import (
    MarkovMeasure,
    l2_distance_sq,
    measure_of,
    measure_of_constraints,
    sample_point,
    sample_point_in,
    stationary_vector,
)
from .folner import (
    DensityEstimate,
    FolnerWindows,
    PeriodicPredicate,
    birkhoff_average,
    density,
    membership_predicate,
    temperedness_constant,
)
from .entropy import (
    EntropyProfile,
    Partition,
    crosscheck_hms_hap,
    df_estimate,
    generator_partition,
    ms_function_test,
    separation_count,
    sequence_entropy_profile,
    shannon_entropy,
    two_set_partition,
)
from .independence import (
    ConstantE,
    IndependenceReport,
    TableE,
    bad_constant_e,
    classify_in_pair,
    full_e,
    independence_density_profile,
    is_independence_set,
    max_independence_subset,
    random_table_e,
)
from .sensitivity import (
    RAPair,
    Verdict,
    classify_diam_pair,
    classify_ms_pair,
    diam_mean_profile,
    disjoint_family_counterexample,
    equivalence_crosscheck,
    find_sensitivity_witnesses,
    pigeonhole_bound,
    pigeonhole_oracle,
    ra_search,
)
from .panel import canonical_pairs, get_system, panel_pairs, panel_systems

__version__ = "0.1.0"
