"""Heat kernels, adapted metrics and Gaussian upper bounds for continuous-time
random walks on weighted graphs."""

from .bounds import (
    BoundRow,
    ConstantLedger,
    ShortLongBound,
    bound_short_long,
    bound_sweep,
    elementary_inequality_slacks,
    fit_empirical_constant,
    fit_sweep_setup,
    norm_tail_bound_check,
    paper_constants,
)
from .graph import (
    GraphFormatError,
    VertexFunction,
    WeightedGraph,
    apply_generator,
    complete_graph,
    csrw_normalized,
    inner_product,
    load_graph,
    load_graph_file,
    path_graph,
    random_connected_graph,
    star_graph,
    vertex_rates,
)
from .imp import (
    GClassFunction,
    TestFunction,
    check_J_monotone,
    check_condition_2_2,
    check_key_lemma,
    gradient_check,
    is_in_F,
    make_drift,
    make_gaussian,
    make_lemma23,
    make_rho,
)
from .kernel import (
    HeatKernelResult,
    KernelEvolution,
    SimulationResult,
    Trajectory,
    heat_kernel,
    kernel_matrix,
    killed_kernel,
    on_diagonal_curve,
    on_diagonal_curves,
    simulate,
)
from .metric import (
    AdaptedMetric,
    default_edge_lengths,
    load_edge_lengths,
    shortest_path_metric,
    verify_adapted,
)
from .regularity import (
    DecayProfile,
    RegularityProfile,
    beta_constant,
    check_envelope,
    check_halving_lemma,
    check_regular,
    derived_constants,
    fit_regularity_profile,
    minimal_regularity_constant,
    regularity_report,
)

__version__ = "0.1.0"
