"""Exact certificates and numeric simulation for pretty good state transfer
between cospectral vertices of weighted graphs under diagonal potentials."""

from __future__ import annotations

from .certify import (
    Certificate,
    RelationTable,
    Verdict,
    build_change_trace,
    build_glue_pot,
    certify_equitable,
    certify_tr_deg,
    choose_glue_length,
    choose_path_shift,
    heuristic_obstruction,
    integer_relation_search,
    parity_obstruction,
    path_charpoly,
)
from .errors import (
    DomainError,
    ExactDivisionError,
    InternalConsistencyError,
    NotCospectralError,
    NotLinearInParamError,
    ParseError,
    PgstError,
    StructuralError,
    ZeroEigenvalueObstruction,
)
from .exact import (
    PolyMatrix,
    SparsePoly,
    bareiss_det,
    charpoly,
    is_irreducible_linear_param,
    krylov_min_poly,
    poly_gcd_t,
    poly_trace,
    split_linear_param,
)
from .fixtures import CATALOG, Fixture, get_fixture
from .graphs import (
    Graph,
    Partition,
    add_apex,
    add_potential,
    coarsest_equitable_refinement,
    glue,
    glue_path,
    graph_digest,
    parse_graph_text,
    path_graph,
    serialize_graph_text,
    to_matrix,
    verify_equitable,
)
from .spectral import (
    CospectralDecomposition,
    decompose,
    is_cospectral,
)
from .walk import (
    FidelityScan,
    NumericSpectrum,
    classify_spectrum,
    fidelity_scan,
    numeric_adjacency,
    numeric_strong_cospectral,
    pgst_ceiling,
    sym_eig,
    write_fidelity_csv,
)

__version__ = "0.1.0"
