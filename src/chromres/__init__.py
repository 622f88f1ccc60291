"""chromres: a desk-scale laboratory for the resilience of the chromatic
number of random graphs.

Exact, reproducible building blocks: seeded random graphs over bit-packed
adjacency, first-moment analytics for independent-set counts, exhaustive
independent-set families with pair-coverage caps, stripping colorings,
adversarial edge additions, and brute-force resilience oracles.
"""

from .analytics import (
    AnalyticProfile,
    TailBounds,
    build_profile,
    compute_k0,
    expected_counts,
    predicted_chromatic,
    tail_bounds,
    working_k,
)
from .adversary import (
    SearchBudgetError,
    bounded_degree_h,
    global_resilience_witness,
    local_resilience_witness,
    plant_clique,
    random_budget,
)
from .coloring import (
    Coloring,
    ColoringTrace,
    StripKnobs,
    chromatic_exact,
    degeneracy_color,
    dsatur,
    find_coloring,
    strip_color,
    verify_coloring,
)
from .graph import (
    EdgeSet,
    GnpParams,
    Graph,
    GraphFormatError,
    RegimeWarning,
    generate_gnp,
    induced_subgraph,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    save_graph,
    to_dimacs,
    to_edge_list,
    union,
)
from .isets import (
    EnumerationLimitError,
    IsetFamily,
    SizeLimitError,
    enumerate_isets,
    is_independent,
    max_independent_set,
    sparse_iset,
    turan_extract,
    uniform_family,
)
from .lab import (
    ConcentrationSummary,
    DensityReport,
    ExperimentConfig,
    concentration_sample,
    density_audit,
    parse_config,
    run_experiment,
)

__version__ = "0.1.0"
