"""R-graph corona constructions on graphs and their normalized Laplacian
spectra: numeric eigendecomposition, closed-form factorization, mutual
cross-validation, and cospectral pair certification."""

from .closedform import (
    ClosedFormSpectrum,
    CoronaParams,
    FamilyTable,
    FixedFamily,
    RealPolynomial,
    RootFamily,
    closed_form_from_spectra,
    closed_form_spectrum,
    copy_block_forms,
    family_polynomial,
    flatten,
)
from .corona import CoronaLayout, double_corona
from .cospectral import (
    CospectralCertificate,
    adjacency_cospectral,
    build_cospectral_pair,
    nl_cospectral,
    regular_cospectrality_agrees,
    verified_seed_pairs,
)
from .errors import (
    ConvergenceError,
    DenseMemoryError,
    DuplicateEdgeError,
    EndpointRangeError,
    GraphValidationError,
    HypothesisError,
    InternalConsistencyError,
    SelfLoopError,
)
from .graphs import (
    Graph,
    adjacency_matrix,
    build_graph,
    format_graph,
    generate,
    incidence_matrix,
    load_graph,
    parse_edge_list,
    parse_graph_json,
    save_graph,
    to_edge_list,
    to_graph_json,
)
from .invariants import degree_kirchhoff, spanning_trees_matrix_tree, spanning_trees_spectral
from .spectra import (
    Spectrum,
    SpectrumComparison,
    compare_spectra,
    nl_spectrum,
    normalized_laplacian,
    normalized_laplacian_regular,
    numeric_spectrum,
    summarize,
)

__version__ = "0.1.0"
