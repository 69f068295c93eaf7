"""The ten acceptance checks, runnable as a suite or individually.

Each criterion function returns a CriterionResult; nothing raises on a
mathematical mismatch, so the full list always reports.  The CLI verify-all
subcommand and the test suite both drive run_all().
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

from .characters import (
    g2_f4_branching_claim,
    graded_dims,
    lattice_character_dims,
    verify_branching,
)
from .correlator import (
    PairingEnv,
    case_cartan_insertion,
    case_opposite_pair,
    case_vacua,
    reduce_state,
)
from .embeddings import embedding_index_check, g2_f4_in_e8, is_conformal
from .fusion import CurveData, fusion_ring, verlinde_dim
from .lie import LieAlgebraId, build_root_datum, conformal_anomaly, trace_anomaly
from .picard import BoundaryIndex, IRR, emit_relation, relation_consistency
from .qsqrt5 import closed_form_value
from .smatrix import quantum_dimension, s_matrix

G2 = LieAlgebraId("G", 2)
F4 = LieAlgebraId("F", 4)
E8 = LieAlgebraId("E", 8)
BRANCHING_BUDGET_S = 60.0  # criterion 7 fails if the depth-3 branching takes longer


class CriterionResult(NamedTuple):
    number: int
    title: str
    passed: bool
    detail: str


def criterion_1_conformal_anomalies() -> CriterionResult:
    values = (
        conformal_anomaly(G2, 1),
        conformal_anomaly(F4, 1),
        conformal_anomaly(E8, 1),
    )
    ok = values == (Fraction(14, 5), Fraction(26, 5), Fraction(8))
    ok = ok and values[0] + values[1] == values[2]
    ok = ok and is_conformal(g2_f4_in_e8())
    return CriterionResult(
        1,
        "conformal anomalies",
        ok,
        f"c(G2,1)={values[0]}, c(F4,1)={values[1]}, c(E8,1)={values[2]}, embedding conformal",
    )


def criterion_2_trace_anomalies() -> CriterionResult:
    d1 = trace_anomaly(G2, 1, build_root_datum(G2).fundamental_weight(1))
    d2 = trace_anomaly(F4, 1, build_root_datum(F4).fundamental_weight(4))
    offsets = tuple(s.offset for s in g2_f4_branching_claim().summands)
    ok = d1 == Fraction(2, 5) and d2 == Fraction(3, 5) and offsets == (0, 1)
    return CriterionResult(
        2,
        "trace anomalies and branching offset",
        ok,
        f"trace anomalies {d1}, {d2}; summand offsets {offsets}",
    )


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def criterion_3_fibonacci() -> CriterionResult:
    ring = fusion_ring(G2, 1)
    w = build_root_datum(G2).fundamental_weight(1)
    got = [verlinde_dim(ring, CurveData(0, (w,) * n)) for n in range(3, 11)]
    want = [_fib(n - 1) for n in range(3, 11)]
    return CriterionResult(
        3,
        "genus-zero Fibonacci dimensions",
        got == want,
        f"n=3..10 gives {got}",
    )


def criterion_4_duality_grid() -> CriterionResult:
    rg = fusion_ring(G2, 1)
    rf = fusion_ring(F4, 1)
    wg = build_root_datum(G2).fundamental_weight(1)
    wf = build_root_datum(F4).fundamental_weight(4)
    ok = True
    for g in range(6):
        for n in range(7):
            a = verlinde_dim(rg, CurveData(g, (wg,) * n))
            b = verlinde_dim(rf, CurveData(g, (wf,) * n))
            c = closed_form_value(g, n)
            if not (a == b == c):
                ok = False
    genus2 = verlinde_dim(rg, CurveData(2, ()))
    ok = ok and genus2 == 5
    return CriterionResult(
        4,
        "strange-duality dimension grid",
        ok,
        f"G2 = F4 = closed form on g<=5, n<=6; genus-2 vacuum value {genus2}",
    )


def criterion_5_e8_trivial() -> CriterionResult:
    ring = fusion_ring(E8, 1)
    vac = build_root_datum(E8).zero_weight()
    dims = [
        verlinde_dim(ring, CurveData(g, (vac,) * n))
        for g in range(6)
        for n in range(5)
    ]
    ok = all(dim == 1 for dim in dims)
    return CriterionResult(5, "E8 level-one triviality", ok, f"{len(dims)} block dimensions, all 1")


def criterion_6_index_sums() -> CriterionResult:
    report = embedding_index_check(g2_f4_in_e8())
    sums = [row for row in report.rows if row.name.startswith("index-sum")]
    ok = report.passed and len(sums) == 2
    return CriterionResult(
        6,
        "adjoint Dynkin-index sum rule",
        ok,
        "; ".join(row.detail for row in sums),
    )


def criterion_7_branching() -> CriterionResult:
    start = time.monotonic()
    claim = g2_f4_branching_claim()
    report = verify_branching(claim, 3)
    elapsed = time.monotonic() - start
    (vg, vf), (wg, wf) = (s.weights for s in claim.summands)
    parts = (
        graded_dims(G2, 1, vg, 1)[1],
        graded_dims(F4, 1, vf, 1)[1],
        graded_dims(G2, 1, wg, 0)[0] * graded_dims(F4, 1, wf, 0)[0],
    )
    depth2 = report.rows[2].ambient_dim
    oracle2 = lattice_character_dims(2)[2]
    ok = (
        report.passed
        and parts == (14, 52, 182)
        and sum(parts) == report.rows[1].ambient_dim == 248
        and depth2 == oracle2 == 4124
        and elapsed < BRANCHING_BUDGET_S
    )
    return CriterionResult(
        7,
        "graded branching to depth 3",
        ok,
        f"depth-1 248 = {parts[0]}+{parts[1]}+{parts[2]}; depth-2 {depth2} vs oracle {oracle2}; "
        f"{elapsed:.1f}s",
    )


def criterion_8_correlators() -> CriterionResult:
    env = PairingEnv(level=1)
    one = reduce_state(case_vacua(), env)
    two = reduce_state(case_opposite_pair(), env)
    three = reduce_state(case_cartan_insertion(), env)
    two_value = two.substitute({"xa": 1}).constant_value()
    ok = (
        one == 1
        and bool(two)
        and two.divisible_by("xa")
        and two_value != 0
        and bool(three)
        and three.divisible_by("bH")
        and three.divisible_by("xb")
        and not three.substitute({"bH": 0})
    )
    return CriterionResult(
        8,
        "three-point correlator reductions",
        ok,
        f"Case I = {one}; Case II = {two}; Case III = {three}",
    )


def criterion_9_pic_relation() -> CriterionResult:
    r11 = emit_relation(1, 1).boundary_map()[IRR]
    r20 = emit_relation(2, 0).boundary_map()[BoundaryIndex("red", 1, ())]
    ok = r11 == 1 and r20 == Fraction(1, 5)
    for g in range(1, 6):
        for n in range(7):
            if 2 * g - 2 + n <= 0:
                continue
            if not relation_consistency(g, n).recursion_holds:
                ok = False
    return CriterionResult(
        9,
        "divisor relation coefficients",
        ok,
        f"(1,1) irr coeff {r11}; (2,0) split coeff {r20}; recursion exact on grid",
    )


def criterion_10_smatrix_agreement() -> CriterionResult:
    worst_fusion = 0.0
    worst_unitarity = 0.0
    for algebra in (G2, F4):
        for level in (1, 2, 3):
            sm = s_matrix(algebra, level, precision=50)
            ring = fusion_ring(algebra, level)
            with mp.workdps(sm.precision):
                worst_unitarity = max(worst_unitarity, float(sm.unitarity_residual()))
                size = len(sm.basis)
                for i in range(size):
                    for j in range(size):
                        for k in range(size):
                            numeric = sm.fusion_coefficient(i, j, k)
                            exact = ring.coefficient(
                                ring.basis[i], ring.basis[j], ring.basis[k]
                            )
                            dev = abs(numeric - exact)
                            worst_fusion = max(worst_fusion, float(dev))
    golden_dev = 0.0
    with mp.workdps(60):
        golden = (1 + mp.sqrt(5)) / 2
        for algebra, node in ((G2, 1), (F4, 4)):
            labels = build_root_datum(algebra).fundamental_weight(node).labels
            qd = quantum_dimension(algebra, 1, labels, precision=50)
            golden_dev = max(golden_dev, float(abs(qd - golden)))
    ok = worst_fusion < 1e-10 and worst_unitarity < 1e-25 and golden_dev < 1e-30
    return CriterionResult(
        10,
        "numeric S-matrix cross-check",
        ok,
        f"fusion deviation {worst_fusion:.2e}, unitarity residual {worst_unitarity:.2e}, "
        f"golden-ratio deviation {golden_dev:.2e}",
    )


CRITERIA = (
    criterion_1_conformal_anomalies,
    criterion_2_trace_anomalies,
    criterion_3_fibonacci,
    criterion_4_duality_grid,
    criterion_5_e8_trivial,
    criterion_6_index_sums,
    criterion_7_branching,
    criterion_8_correlators,
    criterion_9_pic_relation,
    criterion_10_smatrix_agreement,
)


def run_all() -> list:
    return [fn() for fn in CRITERIA]
