"""poslim: exact densities, samplers and limit representations for interval
orders and semiorders."""

from .densities import (
    density,
    kernel_density_atomic,
    kernel_density_mc,
    moment_identity_check,
)
from .errors import (
    BudgetExceeded,
    CycleError,
    EmptySubset,
    FormatError,
    InternalInvariantError,
    InvalidArgument,
    InvariantError,
    NotInPMinus,
    NotIntervalOrder,
    PoslimError,
    SizeLimit,
)
from .graphs import (
    SimpleGraph,
    comparability_graph,
    complement_graph,
    graph_t_ind,
    incomparability_graph,
)
from .measures import (
    AtomicMeasure,
    StepCDF,
    StepKernelMeasure,
    SupportSet,
    equivalent,
    h_map,
    project_star,
    push_h,
    support_and_gaps,
)
from .poset import (
    FinitePoset,
    PosetCatalog,
    antichain,
    chain,
    enumerate_posets,
    from_relations,
    in_star,
    induced,
    named_poset,
    out_star,
    reflect,
    three_plus_one,
    two_plus_two,
)
from .recognition import (
    empirical_measure,
    interval_representation,
    is_interval_order,
    is_semiorder,
)
from .rng import SeededRng
from .sampling import (
    Fingerprint,
    c_parameter,
    converge_diagnostic,
    equivalence_test_statistical,
    fingerprint,
    fingerprint_estimate,
    ks_distance,
    ks_distance_at_continuity,
    ks_for_target,
    nu_empirical,
    p_for_c,
    random_graph_order,
    sample_kernel_poset,
)
from .semiorders import (
    MonotoneRC,
    RateFunction,
    f_minus,
    f_plus,
    g_from_f_plus,
    g_from_nu_minus,
    g_from_rate,
    gc,
    kernel_wg,
    validate_g,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
