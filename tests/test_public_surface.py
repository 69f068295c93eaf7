"""The public names of the package: unchanged, lazily resolved, same objects."""

import functools
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import wzw
from wzw import acceptance, characters, correlator, embeddings, fusion, lie, picard, smatrix

# wzw.__all__ as it stood when every submodule was imported eagerly, less the
# Q(sqrt 5) field class, its golden ratio and the closed form in that field
PINNED_ALL = [
    "InvariantError", "LieAlgebraId", "RootDatum", "Weight", "WeightSystem",
    "build_root_datum", "freudenthal_weights", "level_weights", "tensor_decompose",
    "weyl_dimension",
    "CurveData", "FusionRing", "closed_form_value",
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



G2 = lie.LieAlgebraId("G", 2)


@functools.lru_cache(maxsize=None)
def _samples():
    d = lie.build_root_datum(G2)
    claim = characters.g2_f4_branching_claim()
    branching = characters.verify_branching(claim, 1)
    state = correlator.case_opposite_pair()
    check = embeddings.embedding_index_check(embeddings.g2_f4_in_e8())
    return {
        "LieAlgebraId": G2,
        "Weight": d.weight((1, 0)),
        "RootDatum": d,
        "WeightSystem": lie.freudenthal_weights(d, d.weight((1, 0))),
        "FusionRing": fusion.fusion_ring(G2, 1),
        "CurveData": fusion.CurveData(1, (d.weight((1, 0)),)),
        "SMatrix": smatrix.s_matrix(G2, 1),
        "BranchingSummand": claim.summands[0],
        "BranchingClaim": claim,
        "BranchingRow": branching.rows[0],
        "BranchingReport": branching,
        "ModeOp": correlator.root_mode("a", +1, -1),
        "Term": state.terms[0],
        "CorrelatorState": state,
        "EmbeddingData": embeddings.g2_f4_in_e8(),
        "CheckRow": check.rows[0],
        "CheckReport": check,
        "BoundaryIndex": picard.IRR,
        "PicRelation": picard.emit_relation(1, 1),
        "ConsistencyReport": picard.relation_consistency(2, 0),
        "CriterionResult": acceptance.criterion_1_conformal_anomalies(),
    }


# records holding a dict, a list of rows or a Poly, none of them hashable, as before
UNHASHABLE = {"WeightSystem", "SMatrix", "Term", "CorrelatorState"}
RECORDS = ["LieAlgebraId", "Weight", "RootDatum", "WeightSystem", "FusionRing", "CurveData", "SMatrix",
           "BranchingSummand", "BranchingClaim", "BranchingRow", "BranchingReport", "ModeOp", "Term",
           "CorrelatorState", "EmbeddingData", "CheckRow", "CheckReport", "BoundaryIndex", "PicRelation",
           "ConsistencyReport", "CriterionResult"]


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_named_tuple(name):
    rec = _samples()[name]
    cls = type(rec)
    assert cls.__name__ == name and isinstance(rec, tuple)
    # equal to the plain tuple of its fields, unpackable, and rebuilt from them
    fields = tuple(getattr(rec, f) for f in cls._fields)
    assert rec == fields and tuple(rec) == fields
    copy = cls(*rec)
    assert copy == rec and copy is not rec
    for field in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    assert not hasattr(rec, "__dict__")
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(copy) == hash(rec) == hash(fields) and {rec: 1}[copy] == 1


def test_every_record_of_the_package_is_sampled():
    classes = {
        name
        for module in (acceptance, characters, correlator, embeddings, fusion, lie, picard, smatrix)
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__
    }
    assert classes == set(RECORDS)


def test_fusion_ring_compares_over_algebra_level_and_basis():
    ring = fusion.fusion_ring(G2, 1)
    assert fusion.FusionRing._fields == ("algebra", "level", "basis")
    assert fusion.FusionRing(G2, 1, ring.basis) == ring and ring != fusion.fusion_ring(G2, 2)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: lie.LieAlgebraId("X", 2), "unknown series 'X'"),
        (lambda: lie.LieAlgebraId(series="A", rank=81), "rank 81 is above the cap 80"),
        (lambda: lie.LieAlgebraId("E", 9), "invalid simple type E9"),
        (lambda: lie.Weight(G2, (1,)), "G2 weight needs 2 labels, got 1"),
        (lambda: fusion.CurveData(-1, ()), "genus must be nonnegative"),
    ],
)
def test_validated_records_refuse_with_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_weight_and_algebra_reprs_are_unchanged():
    assert repr(G2) == "LieAlgebraId(series='G', rank=2)"
    assert repr(lie.Weight(G2, (1, 0))) == "Weight(algebra=LieAlgebraId(series='G', rank=2), labels=(1, 0))"
