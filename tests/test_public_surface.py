"""The public names of the package: unchanged, lazily resolved, same objects."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import wzw

# wzw.__all__ as it stood when every submodule was imported eagerly
PINNED_ALL = [
    "GOLDEN", "QSqrt5",
    "InvariantError", "LieAlgebraId", "RootDatum", "Weight", "WeightSystem",
    "build_root_datum", "freudenthal_weights", "level_weights", "tensor_decompose",
    "weyl_dimension",
    "CurveData", "FusionRing", "closed_form_dimension", "closed_form_value",
    "fusion_ring", "propagation_check", "verlinde_dim",
    "SMatrix", "default_precision", "quantum_dimension", "s_matrix", "s_matrix_column",
    "EmbeddingData", "conformal_anomaly", "embedding_catalogue", "embedding_index_check",
    "embedding_report", "g2_f4_in_e8", "is_conformal", "rep_dynkin_index", "trace_anomaly",
    "BranchingClaim", "GradedModule", "g2_f4_branching_claim", "graded_dims",
    "graded_module", "lattice_character_dims", "verify_branching",
    "CorrelatorState", "ModeOp", "PairingEnv", "Poly", "ReductionBudgetExceeded",
    "apply_bracket", "case_cartan_insertion", "case_opposite_pair", "case_vacua",
    "gauge_move", "parse_script", "reduce_state",
    "IRR", "BoundaryIndex", "PicRelation", "boundary_strata", "emit_relation",
    "relation_consistency", "relation_json_obj",
    "CRITERIA", "CriterionResult", "run_all",
]


def test_all_is_unchanged():
    assert wzw.__all__ == PINNED_ALL


def test_each_export_is_the_owning_module_object():
    for name, owner in wzw._OWNER.items():
        assert getattr(wzw, name) is getattr(import_module("wzw." + owner), name), name


def test_dir_lists_every_export():
    assert set(PINNED_ALL) <= set(dir(wzw))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from wzw import *", namespace)
    assert all(namespace[name] is getattr(wzw, name) for name in PINNED_ALL)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wzw.no_such_name


def test_submodules_resolve_after_a_bare_import():
    # a fresh interpreter: here the test run has long since imported every submodule
    env = dict(os.environ, PYTHONPATH=str(Path(wzw.__file__).resolve().parents[1]))
    probe = "import sys, wzw; print(wzw.picard.IRR is sys.modules['wzw.picard'].IRR, 'mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, check=True, env=env, text=True
    ).stdout
    assert out.split() == ["True", "False"]

