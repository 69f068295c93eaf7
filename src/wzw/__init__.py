"""Exact level-one WZW computations for G2, F4 and E8.

Root systems and weight multiplicities are exact integer/rational arithmetic;
fusion rings use the Kac-Walton rule; conformal-block dimensions are a vacuum
entry of fusion-matrix powers and, at level one, an integer trace in Z[phi],
the integers of Q(sqrt 5); the numeric Kac-Peterson S-matrix is an independent
cross-check.  Conformal-embedding checks, graded branching of level-one
characters, three-point gauge-correlator reduction and the boundary-divisor
relation round out the toolkit.  `python -m wzw.cli --help`
for the command-line surface.

The package exports resolve lazily: `import wzw` loads no submodule, and the
first access to an exported name (`wzw.X`, `from wzw import X`, `import *`)
imports only the submodule that defines it.
"""

import importlib

__version__ = "0.1.0"


class InvariantError(ArithmeticError):  # here, not in lie, so cli catches it without loading lie
    """A mathematical invariant of an exact computation failed: a bug, never bad input."""


# exported names in `__all__` order, each row under the submodule that defines
# them; a submodule has several rows where `__all__` interleaves its names.
# InvariantError, defined above, lists under lie for its place in `__all__`.
_EXPORTS = (
    ("lie", ("InvariantError", "LieAlgebraId", "RootDatum", "Weight", "WeightSystem", "build_root_datum",
             "freudenthal_weights", "level_weights", "tensor_decompose", "weyl_dimension")),
    ("fusion", ("CurveData", "FusionRing")),
    ("qsqrt5", ("closed_form_value",)),
    ("fusion", ("fusion_ring", "propagation_check", "verlinde_dim")),
    ("smatrix", ("SMatrix", "default_precision", "quantum_dimension", "s_matrix", "s_matrix_column")),
    ("embeddings", ("EmbeddingData",)),
    ("lie", ("conformal_anomaly",)),
    ("embeddings", ("embedding_catalogue", "embedding_index_check", "embedding_report", "g2_f4_in_e8",
                    "is_conformal", "rep_dynkin_index")),
    ("lie", ("trace_anomaly",)),
    ("characters", ("BranchingClaim",)),
    ("lie", ("GradedModule",)),
    ("characters", ("g2_f4_branching_claim", "graded_dims")),
    ("lie", ("graded_module",)),
    ("characters", ("lattice_character_dims", "verify_branching")),
    ("correlator", ("CorrelatorState", "ModeOp", "PairingEnv", "Poly", "ReductionBudgetExceeded",
                    "apply_bracket", "case_cartan_insertion", "case_opposite_pair", "case_vacua",
                    "gauge_move", "parse_script", "reduce_state")),
    ("picard", ("IRR", "BoundaryIndex", "PicRelation", "boundary_strata", "emit_relation",
                "relation_consistency", "relation_json_obj")),
    ("acceptance", ("CRITERIA", "CriterionResult", "run_all")),
)

_OWNER = {name: module for module, names in _EXPORTS for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    """Import the submodule that owns an exported name on first access."""
    if name in _OWNER.values():  # `wzw.lie` after a bare `import wzw`
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
