"""Exact level-one WZW computations for G2, F4 and E8.

Root systems and weight multiplicities are exact integer/rational arithmetic;
fusion rings use the Kac-Walton rule; conformal-block dimensions are a vacuum
entry of fusion-matrix powers and close in Q(sqrt 5) at level one; the numeric
Kac-Peterson S-matrix is an independent cross-check.  Conformal-embedding checks,
graded branching of level-one characters, three-point gauge-correlator reduction
and the boundary-divisor relation round out the toolkit.  `python -m wzw.cli --help`
for the command-line surface.
"""

from .qsqrt5 import GOLDEN, QSqrt5
from .lie import (
    InvariantError,
    LieAlgebraId,
    RootDatum,
    Weight,
    WeightSystem,
    build_root_datum,
    freudenthal_weights,
    level_weights,
    tensor_decompose,
    weyl_dimension,
)
from .fusion import (
    CurveData,
    FusionRing,
    closed_form_dimension,
    closed_form_value,
    fusion_ring,
    propagation_check,
    verlinde_dim,
)
from .smatrix import (
    SMatrix,
    default_precision,
    quantum_dimension,
    s_matrix,
    s_matrix_column,
)
from .embeddings import (
    EmbeddingData,
    conformal_anomaly,
    embedding_catalogue,
    embedding_index_check,
    embedding_report,
    g2_f4_in_e8,
    is_conformal,
    rep_dynkin_index,
    trace_anomaly,
)
from .characters import (
    BranchingClaim,
    GradedModule,
    g2_f4_branching_claim,
    graded_dims,
    graded_module,
    lattice_character_dims,
    verify_branching,
)
from .correlator import (
    CorrelatorState,
    ModeOp,
    PairingEnv,
    Poly,
    ReductionBudgetExceeded,
    apply_bracket,
    case_cartan_insertion,
    case_opposite_pair,
    case_vacua,
    gauge_move,
    parse_script,
    reduce_state,
)
from .picard import (
    IRR,
    BoundaryIndex,
    PicRelation,
    boundary_strata,
    emit_relation,
    relation_consistency,
    relation_json_obj,
)
from .acceptance import CRITERIA, CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    "GOLDEN",
    "QSqrt5",
    "InvariantError",
    "LieAlgebraId",
    "RootDatum",
    "Weight",
    "WeightSystem",
    "build_root_datum",
    "freudenthal_weights",
    "level_weights",
    "tensor_decompose",
    "weyl_dimension",
    "CurveData",
    "FusionRing",
    "closed_form_dimension",
    "closed_form_value",
    "fusion_ring",
    "propagation_check",
    "verlinde_dim",
    "SMatrix",
    "default_precision",
    "quantum_dimension",
    "s_matrix",
    "s_matrix_column",
    "EmbeddingData",
    "conformal_anomaly",
    "embedding_catalogue",
    "embedding_index_check",
    "embedding_report",
    "g2_f4_in_e8",
    "is_conformal",
    "rep_dynkin_index",
    "trace_anomaly",
    "BranchingClaim",
    "GradedModule",
    "g2_f4_branching_claim",
    "graded_dims",
    "graded_module",
    "lattice_character_dims",
    "verify_branching",
    "CorrelatorState",
    "ModeOp",
    "PairingEnv",
    "Poly",
    "ReductionBudgetExceeded",
    "apply_bracket",
    "case_cartan_insertion",
    "case_opposite_pair",
    "case_vacua",
    "gauge_move",
    "parse_script",
    "reduce_state",
    "IRR",
    "BoundaryIndex",
    "PicRelation",
    "boundary_strata",
    "emit_relation",
    "relation_consistency",
    "relation_json_obj",
    "CRITERIA",
    "CriterionResult",
    "run_all",
]
