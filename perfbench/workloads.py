"""The four workloads, one function each: ``run(rec, rng, tiny)``.

A workload draws every input from ``rng``, which the benchmark seeds from
--seed; wzw receives only the generated inputs.  The shape of a pass (which
rings, levels, depths and how many queries) is fixed, and the seed picks among
inputs of about equal cost, so passes on different seeds do comparable work.
``tiny`` shrinks each workload for the benchmark's self-check.

Every answer is checked against a second route (see oracles.py); checks are
benchmark code and are not timed as operations.
"""

from __future__ import annotations

import tempfile
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import oracles
from record import OpFailed
from wzw import (
    IRR,
    CorrelatorState,
    CurveData,
    LieAlgebraId,
    PairingEnv,
    build_root_datum,
    closed_form_value,
    conformal_anomaly,
    emit_relation,
    embedding_report,
    freudenthal_weights,
    fusion_ring,
    g2_f4_branching_claim,
    g2_f4_in_e8,
    graded_dims,
    lattice_character_dims,
    quantum_dimension,
    reduce_state,
    relation_consistency,
    s_matrix,
    s_matrix_column,
    tensor_decompose,
    trace_anomaly,
    verify_branching,
    verlinde_dim,
    weyl_dimension,
)
from wzw.correlator import cartan_mode, root_mode

G2, F4, E8 = LieAlgebraId("G", 2), LieAlgebraId("F", 4), LieAlgebraId("E", 8)
PRECISION = 50  # digits, passed explicitly so WZW_PRECISION cannot shift the numbers


# ----------------------------------------------------------------------------
# shared pieces


def _fusion_table(rec, algebra, level):
    """Full Kac-Walton table: (ring, {(i, j): {k: N}}).

    Returns None for the table when a product failed.
    """
    ring = rec.call("fusion", fusion_ring, algebra, level)
    index = {w.labels: i for i, w in enumerate(ring.basis)}
    table = {}
    for i, j in ((i, j) for i in range(len(ring.basis)) for j in range(i, len(ring.basis))):
        with suppress(OpFailed):
            product = rec.call(
                "fusion", ring.product, ring.basis[i], ring.basis[j], work=lambda _: {"products": 1}
            )
            table[i, j] = table[j, i] = {index[w.labels]: m for w, m in product.items()}
    return ring, (table if len(table) == len(ring.basis) ** 2 else None)


def _blocks_work(_):
    return {"block_queries": 1}


# ----------------------------------------------------------------------------
# exact-blocks: lie, fusion, qsqrt5 and picard


def exact_blocks(rec, rng, tiny):
    levels = (1, 2) if tiny else (1, 2, 3)
    rings = {}
    for algebra in (G2, F4):
        for level in levels:
            rings[algebra, level] = _fusion_table(rec, algebra, level)

    for (algebra, level), (ring, table) in rings.items():
        if table is None:
            continue
        d = ring.datum
        basis = ring.basis
        # Below the wall the truncation does nothing: with level(x) + level(y) <= ell
        # the fusion product equals the classical tensor product.
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                if d.level_of(basis[i].labels) + d.level_of(basis[j].labels) > level:
                    continue
                with suppress(OpFailed):
                    classical = rec.call(
                        "lie", tensor_decompose, d, basis[i], basis[j],
                        work=lambda r: {"constituents": len(r)},
                    )
                    rec.expect(
                        f"{algebra} level {level}: {basis[i]} x {basis[j]} equals the tensor product",
                        {w.labels: m for w, m in classical.items()},
                        {basis[k].labels: m for k, m in table[i, j].items()},
                    )
        # associativity on seeded triples, from the table alone
        for _ in range(2 if tiny else 6):
            x, y, z = (rng.randrange(len(basis)) for _ in range(3))
            left = _fuse(table, _fuse(table, {x: 1}, {y: 1}), {z: 1})
            right = _fuse(table, {x: 1}, _fuse(table, {y: 1}, {z: 1}))
            rec.expect(f"{algebra} level {level}: ({x} x {y}) x {z} = {x} x ({y} x {z})", left, right)

    # Freudenthal against the Weyl dimension formula for every basis weight
    for algebra in (G2, F4):
        ring, _ = rings[algebra, levels[-1]]
        d = ring.datum
        for w in ring.basis:
            with suppress(OpFailed):
                ws = rec.call("lie", freudenthal_weights, d, w, work=lambda r: {"weights": len(r.multiplicities)})
                dim = rec.call("lie", weyl_dimension, d, w)
                rec.expect(f"{algebra} {w}: sum of Freudenthal multiplicities", ws.dimension, dim)

    # Level one: G2 and F4 are both the Fibonacci ring, so the two recursions,
    # the Q(sqrt 5) closed form and the matrix route must agree.  One large
    # genus/insertion query, then small ones.  Seeded queries cost either far
    # more or far less than the median operation, so the seed does not move it.
    queries = [(rng.randint(5, 8), rng.randint(3, 6))] if tiny else [(rng.randint(59, 61), rng.randint(29, 31))]
    queries += [(rng.randint(0, 1), rng.randint(0, 6)) for _ in range(2 if tiny else 6)]
    for g, n in queries:
        with suppress(OpFailed):
            dims = []
            for algebra in (G2, F4):
                ring, _ = rings[algebra, 1]
                curve = CurveData(g, (ring.basis[1],) * n)
                dim = rec.call("fusion", verlinde_dim, ring, curve, work=_blocks_work)
                padded = CurveData(g, curve.insertions + (ring.basis[0],))
                rec.expect(
                    f"{algebra} (g, n) = ({g}, {n}): extra vacuum insertion",
                    rec.call("fusion", verlinde_dim, ring, padded, work=_blocks_work),
                    dim,
                )
                dims.append(dim)
            closed = rec.call("qsqrt5", closed_form_value, g, n)
            rec.expect(f"(g, n) = ({g}, {n}): G2 = F4", dims[0], dims[1])
            rec.expect(f"(g, n) = ({g}, {n}): closed form", closed, dims[0])
            rec.expect(f"(g, n) = ({g}, {n}): matrix route", oracles.fibonacci_blocks(g, n), dims[0])

    # Higher levels: four seeded insertions on the sphere, checked by the
    # matrix route on the table.
    for algebra in (G2, F4):
        for level in levels[1:]:
            ring, table = rings[algebra, level]
            if table is None:
                continue
            route = oracles.FusionMatrices(table, len(ring.basis))
            for _ in range(2 if tiny else 4):
                g, picks = 0, [rng.randrange(len(ring.basis)) for _ in range(4)]
                with suppress(OpFailed):
                    curve = CurveData(g, tuple(ring.basis[i] for i in picks))
                    dim = rec.call("fusion", verlinde_dim, ring, curve, work=_blocks_work)
                    rec.expect(
                        f"{algebra} level {level} genus {g} insertions {picks}: matrix route",
                        route.dimension(g, picks),
                        dim,
                    )

    # Divisor relation.  Cost grows like (g + 1) 2^n, so the seed picks among
    # (g, n) of equal (g + 1) 2^n: about 1,015 strata for emit_relation and
    # 508 for relation_consistency.
    if tiny:
        emit_choices, consistency_choices = [(1, 5), (3, 4)], [(1, 4), (3, 3)]
    else:
        emit_choices, consistency_choices = [(1, 10), (3, 9), (7, 8), (15, 7)], [(1, 9), (3, 8), (7, 7), (15, 6)]
    g, n = rng.choice(emit_choices)
    with suppress(OpFailed):
        rel = rec.call("picard", emit_relation, g, n, work=lambda r: {"strata": len(r.boundary)})
        rec.expect(f"({g}, {n}): number of strata", len(rel.boundary), oracles.boundary_divisor_count(g, n))
        rec.expect(f"({g}, {n}): G2 block coefficient", rel.g2_block_coeff, Fraction(1, oracles.fibonacci_blocks(g, n)))
        sample = [(IRR, rel.boundary_map()[IRR])] + rng.sample(rel.boundary, 4 if tiny else 12)
        for s, c in sample:
            if s.kind == "irr":
                want = oracles.boundary_coefficient(g, n, None, 0)
            else:
                want = oracles.boundary_coefficient(g, n, s.h, len(s.markings))
            rec.expect(f"({g}, {n}): coefficient of {s}", c, want)
    g, n = rng.choice(consistency_choices)
    with suppress(OpFailed):
        report = rec.call("picard", relation_consistency, g, n)
        rec.expect(f"({g}, {n}): consistency report passes", report.passed, True)
        rec.expect(
            f"({g}, {n}): F recursion values",
            report.recursion_values,
            tuple(oracles.fibonacci_blocks(*gn) for gn in ((g, n), (g - 1, n + 2), (g - 1, n))),
        )


def _fuse(table, u, v):
    """Product of two ring elements given as dicts index -> coefficient."""
    out = {}
    for x, c in u.items():
        for y, e in v.items():
            for k, m in table[x, y].items():
                out[k] = out.get(k, 0) + c * e * m
    return out


# ----------------------------------------------------------------------------
# numeric-crosscheck: smatrix, with fusion building the tables it compares against


def numeric_crosscheck(rec, rng, tiny):
    cases = [(G2, 1), (G2, 2)] if tiny else [(G2, 1), (G2, 2), (G2, 3), (F4, 1)]
    rng.shuffle(cases)
    with mp.workdps(PRECISION):
        phi = +mp.phi
        tight = mp.mpf(10) ** (10 - PRECISION)  # agreement expected of two 50-digit routes
        for algebra, level in cases:
            with suppress(OpFailed):
                ring, table = _fusion_table(rec, algebra, level)
                weyl = build_root_datum(algebra).weyl_order
                sm = rec.call(
                    "smatrix", s_matrix, algebra, level, PRECISION,
                    work=lambda s: {"orbit_points": weyl * len(s.basis) ** 2},
                )
                name = f"{algebra} level {level}"
                rec.expect(f"{name}: S-matrix basis", sm.basis, ring.basis)
                rec.within(f"{name}: unitarity residual", rec.call("smatrix", sm.unitarity_residual), 1e-25)
                n = len(sm.basis)
                if table is not None:
                    for _ in range(3 if tiny else 12):
                        i, j, k = (rng.randrange(n) for _ in range(3))
                        value = rec.call("smatrix", sm.fusion_coefficient, i, j, k)
                        rec.within(f"{name}: Verlinde sum N_{i}{j}^{k}", abs(value - table[i, j].get(k, 0)), 1e-10)
                basis, column = rec.call("smatrix", s_matrix_column, algebra, level, PRECISION)
                rec.within(
                    f"{name}: sine-product column = |orbit-sum vacuum row|",
                    max(abs(abs(sm.entries[0][a]) - column[a]) for a in range(n)),
                    tight,
                )
                for a, w in enumerate(basis):
                    qd = rec.call("smatrix", quantum_dimension, algebra, level, w.labels, PRECISION)
                    ratio = rec.call("smatrix", sm.quantum_dimension, a)
                    rec.within(f"{name}: quantum dimension of {w}", abs(qd - ratio), tight)
                    if level == 1 and a == 1:
                        rec.within(f"{name}: quantum dimension of {w} is the golden ratio", abs(qd - phi), tight)
        # E8 at level one has the vacuum only: column (1) and quantum dimension 1
        with suppress(OpFailed):
            basis, column = rec.call("smatrix", s_matrix_column, E8, 1, PRECISION)
            rec.expect("E8 level 1: number of primaries", len(basis), 1)
            rec.within("E8 level 1: vacuum column", abs(column[0] - 1), tight)
            qd = rec.call("smatrix", quantum_dimension, E8, 1, (0,) * 8, PRECISION)
            rec.within("E8 level 1: quantum dimension", abs(qd - 1), tight)


# ----------------------------------------------------------------------------
# graded-gauge: characters, embeddings and correlator


def lowest_slot_first(slots) -> int:
    """A second reduction order: gauge away the lowest-numbered nonempty slot."""
    return next(i for i in range(3) if slots[i])


def _hxx_state(k: int, mode: int, root: str) -> CorrelatorState:
    """H(-m)^k in slot 1, X+r(-m)^k in slot 2, X-r(-m)^k in slot 3."""
    return CorrelatorState.single(
        (cartan_mode(-mode),) * k, (root_mode(root, +1, -mode),) * k, (root_mode(root, -1, -mode),) * k
    )


def _reduce_work(state):
    depth = sum(-op.mode for t in state.terms for word in t.slots for op in word)
    return lambda poly: {"input_depth": depth, "result_terms": len(poly.terms)}


# (k, mode, levels to draw from).  The cost of a reduction depends on the
# level, so each row lists levels at which both reduction orders cost about
# the same (within 10%, measured on a 2-vCPU Linux container).  Rows with
# mode 1 and k > level are null-vector cases whose value is 0.  The five
# heavy rows keep the tail percentile (about the fourth-slowest operation of
# a pass) inside one cluster of similar reductions.
CORRELATOR_SHAPES = (
    (4, 1, (5, 6)),
    (4, 1, (5, 6)),
    (4, 1, (0, 1)),
    (3, 2, (3, 6, 8)),
    (3, 2, (3, 6, 8)),
    (3, 1, (4, 5, 6)),
    (2, 4, (4, 5, 7, 8)),
    (2, 3, (2, 3, 5, 6)),
    (2, 2, (1, 2, 5)),
    (2, 1, (1, 4, 5)),
)
TINY_CORRELATOR_SHAPES = ((2, 1, (1, 4)), (3, 1, (4, 5)), (2, 2, (1, 2)))


def graded_gauge(rec, rng, tiny):
    # The G2 x F4 pair in E8: central charges 14/5 + 26/5 = 8 and conformal
    # weights 2/5 (G2, 7-dim) and 3/5 (F4, 26-dim) give the offsets 0 and 1.
    with suppress(OpFailed):
        embedding = rec.call("embeddings", g2_f4_in_e8)
        rec.expect("g2xf4-in-e8 checks pass", rec.call("embeddings", embedding_report, embedding).passed, True)
        charges = [rec.call("embeddings", conformal_anomaly, a, 1) for a in (G2, F4, E8)]
        rec.expect("central charges", charges, [Fraction(14, 5), Fraction(26, 5), Fraction(8)])
        weights = [
            rec.call("embeddings", trace_anomaly, G2, 1, build_root_datum(G2).fundamental_weight(1)),
            rec.call("embeddings", trace_anomaly, F4, 1, build_root_datum(F4).fundamental_weight(4)),
        ]
        rec.expect("conformal weights", weights, [Fraction(2, 5), Fraction(3, 5)])

    rows_work = lambda r: {"depth_rows": len(r.rows)}  # noqa: E731
    dims_work = lambda r: {"depth_rows": len(r)}  # noqa: E731
    max_depth = 1 if tiny else 4
    with suppress(OpFailed):
        claim = rec.call("characters", g2_f4_branching_claim)
        rec.expect("summand offsets", [s.offset for s in claim.summands], [0, 1])
        lattice = rec.call("characters", lattice_character_dims, max_depth, work=dims_work)
        e8_vacuum = build_root_datum(E8).zero_weight()
        # The first query goes to full depth and does the work; the shallower
        # ones, in seeded order, must agree with it from the modules' caches.
        depths = list(range(max_depth))
        rng.shuffle(depths)
        for depth in [max_depth] + depths:
            with suppress(OpFailed):
                report = rec.call("characters", verify_branching, claim, depth, work=rows_work)
                rec.expect(f"branching rows match to depth {depth}", [r.matches for r in report.rows], [True] * (depth + 1))
                rec.expect(
                    f"E8 vacuum rows to depth {depth} = lattice",
                    tuple(r.ambient_dim for r in report.rows),
                    lattice[: depth + 1],
                )
                direct = rec.call("characters", graded_dims, E8, 1, e8_vacuum, depth, work=dims_work)
                rec.expect(f"E8 graded_dims to depth {depth} = lattice", direct, lattice[: depth + 1])

    for k, mode, levels in TINY_CORRELATOR_SHAPES if tiny else CORRELATOR_SHAPES:
        level = rng.choice(levels)
        root = rng.choice(("a", "b", "r"))
        state = _hxx_state(k, mode, root)
        name = f"H(-{mode})^{k} X+{root}(-{mode})^{k} X-{root}(-{mode})^{k} at level {level}"
        with suppress(OpFailed):
            first = rec.call("correlator", reduce_state, state, PairingEnv(level=level), work=_reduce_work(state))
            second = rec.call(
                "correlator", reduce_state, state, PairingEnv(level=level),
                strategy=lowest_slot_first, work=_reduce_work(state),
            )
            rec.expect(f"{name}: two reduction orders", second, first)
            if mode == 1:
                c = oracles.hxx_coefficient(k, level)
                want = {tuple(sorted([f"{root}H"] * k + [f"x{root}"] * k)): c} if c else {}
                rec.expect(f"{name}: closed form", first.terms, want)


# ----------------------------------------------------------------------------
# cli-calls: one fresh `python -m wzw.cli ... --json` process per operation


ROOT_SYSTEMS = {"G2": (14, 12), "F4": (52, 1152), "E8": (248, 696729600)}  # dimension, |W|
LEVEL_ONE_GENERATOR = {"G2": [1, 0], "F4": [0, 0, 0, 1]}
E8_VACUUM_DIMS = [1, 248, 4124]  # lattice theta series over eta^8
EMBEDDINGS = (
    "g2xf4-in-e8", "sl2xsl2-in-sl4", "sl2xsl3-in-sl6", "sl3xsl3-in-sl9",
    "so5xso6-in-so30", "sp4xsp4-in-so16", "sp4xsp6-in-so24",
)
# Documented-surface inputs that must answer or exit 2.  Both exceed the
# recursion limit in the factorization recursion (exit 1, RecursionError);
# they stay in every pass so the defect shows until it is fixed.
KNOWN_DEFECT_PROBES = (
    (["verlinde", "--algebra", "G2", "--level", "1", "--genus", "1500"], (1500, 0)),
    (["verlinde", "--algebra", "G2", "--level", "1", "--genus", "0", "--weights", "[1,0]x3000"], (0, 3000)),
)
BAD_SCRIPT = "slot4: H(-1)\n"


def _refusals(script_dir):
    return [
        ["verlinde", "--algebra", "X9", "--level", "1", "--genus", "0"],
        ["fusion", "--algebra", "G2", "--level", "-1"],
        ["verlinde", "--algebra", "G2", "--level", "1", "--genus", "0", "--weights", "[1]"],
        ["verlinde", "--algebra", "G2", "--level", "1", "--genus", "-1"],
        ["pic-relation", "--genus", "0", "--markings", "2"],
        ["embedding", "check", "--name", "no-such-embedding"],
        ["correlator", "--script", str(script_dir / "bad.txt")],
    ]


def _fusion_doc(doc):
    return {
        (tuple(row["x"]), tuple(row["y"])): {tuple(c["weight"]): c["multiplicity"] for c in row["product"]}
        for row in doc["table"]
    }


def _terms_json(c: int, powers: dict) -> list:
    return [{"coefficient": str(c), "powers": powers}] if c else []


def _cli_plan(rng, script_dir, tiny):
    """(argv, check, refusal_ok, known_defect) for one pass, in seeded order."""
    plan = []

    algebra = rng.choice(sorted(ROOT_SYSTEMS))
    plan.append((["root-system", "--algebra", algebra], lambda doc, a=algebra: [
        ("dimension, |W|", (doc["dimension"], doc["weyl_order"]), ROOT_SYSTEMS[a]),
        ("positive roots", len(doc["positive_roots"]), (doc["dimension"] - doc["rank"]) // 2),
    ]))

    for _ in range(1 if tiny else 2):
        algebra, g, n = rng.choice(sorted(LEVEL_ONE_GENERATOR)), rng.randint(0, 3), rng.randint(0, 6)
        weights = ["--weights", f"[{','.join(map(str, LEVEL_ONE_GENERATOR[algebra]))}]x{n}"] if n else []
        plan.append((["verlinde", "--algebra", algebra, "--level", "1", "--genus", str(g), *weights],
                     lambda doc, g=g, n=n: [("dimension", doc["dimension"], oracles.fibonacci_blocks(g, n))]))

    if not tiny:
        algebra = rng.choice(sorted(LEVEL_ONE_GENERATOR))
        one, t = (0,) * len(LEVEL_ONE_GENERATOR[algebra]), tuple(LEVEL_ONE_GENERATOR[algebra])
        fibonacci = {(one, one): {one: 1}, (one, t): {t: 1}, (t, t): {one: 1, t: 1}}
        plan.append((["fusion", "--algebra", algebra, "--level", "1"],
                     lambda doc, want=fibonacci: [("table", _fusion_doc(doc), want)]))

        g, n = rng.randint(0, 3), rng.randint(0, 4)
        weights = ["--weights", f"[{','.join(['0'] * 8)}]x{n}"] if n else []
        plan.append((["verlinde", "--algebra", "E8", "--level", "1", "--genus", str(g), *weights],
                     lambda doc: [("dimension", doc["dimension"], 1)]))

        precision = rng.choice((30, 40, 50))
        plan.append((["s-matrix", "--algebra", "G2", "--level", "1", "--precision", str(precision)], _smatrix_checks))

        plan.append((["embedding", "list"],
                     lambda doc: [("names", set(EMBEDDINGS) <= {e["name"] for e in doc["embeddings"]}, True)]))
        name = rng.choice(EMBEDDINGS)
        plan.append((["embedding", "check", "--name", name], lambda doc: [("passed", doc["passed"], True)]))

        plan.append((["branch-verify", "--depth", "2"], lambda doc: [
            ("passed", doc["passed"], True),
            ("E8 vacuum rows", [r["ambient_dim"] for r in doc["rows"]], E8_VACUUM_DIMS),
        ]))

        case, level = rng.choice(("I", "II", "III")), rng.randint(1, 4)
        want = {
            "I": _terms_json(1, {}),
            "II": _terms_json(-level, {"xa": 1}),
            "III": _terms_json(level, {"bH": 1, "xb": 1}),
        }[case]
        plan.append((["correlator", "--case", case, "--level", str(level)],
                     lambda doc, w=want: [("terms", doc["terms"], w)]))

        k, level = rng.randint(1, 3), rng.randint(1, 4)
        script = script_dir / "hxx.txt"
        script.write_text(
            f"level {level}\nslot1: {' '.join(['H(-1)'] * k)}\n"
            f"slot2: {' '.join(['X+a(-1)'] * k)}\nslot3: {' '.join(['X-a(-1)'] * k)}\n",
            encoding="utf-8",
        )
        want = _terms_json(oracles.hxx_coefficient(k, level), {"aH": k, "xa": k})
        plan.append((["correlator", "--script", str(script)], lambda doc, w=want: [("terms", doc["terms"], w)]))

        g, n = rng.randint(1, 2), rng.randint(1, 4)
        plan.append((["pic-relation", "--genus", str(g), "--markings", str(n)], lambda doc, g=g, n=n: [
            ("number of strata", len(doc["rhs"]["boundary"]) + ("irr" in doc["rhs"]), oracles.boundary_divisor_count(g, n)),
            ("G2 block", doc["rhs"]["g2_block"], str(Fraction(1, oracles.fibonacci_blocks(g, n)))),
            ("irr", doc["rhs"]["irr"], str(oracles.boundary_coefficient(g, n, None, 0))),
        ]))

    plan = [(argv, check, False, False) for argv, check in plan]
    for argv, (g, n) in KNOWN_DEFECT_PROBES[:1] if tiny else KNOWN_DEFECT_PROBES:
        plan.append((argv, lambda doc, g=g, n=n: [("dimension", doc["dimension"], oracles.fibonacci_blocks(g, n))], True, True))
    plan.append((["s-matrix", "--algebra", "E8", "--level", "1", "--precision", "50"],
                 lambda doc: [("entries", doc["entries"], [[{"re": "1.0", "im": "0.0"}]])], True, False))
    for argv in rng.sample(_refusals(script_dir), 1 if tiny else 2):
        plan.append((argv, None, True, False))
    rng.shuffle(plan)
    return plan


def _smatrix_checks(doc):
    """Fibonacci S-matrix: S01/S00 = phi and S11/S00 = -1 (20 printed digits)."""
    with mp.workdps(30):
        s = [[mp.mpc(mp.mpf(e["re"]), mp.mpf(e["im"])) for e in row] for row in doc["entries"]]
        return [
            ("basis", doc["basis"], [[0, 0], [1, 0]]),
            ("S01/S00 = phi", bool(abs(s[0][1] / s[0][0] - mp.phi) < 1e-15), True),
            ("S11/S00 = -1", bool(abs(s[1][1] / s[0][0] + 1) < 1e-15), True),
            ("unitarity residual", float(doc["unitarity_residual"]) < 1e-25, True),
        ]


def cli_calls(rec, rng, tiny):
    with tempfile.TemporaryDirectory(prefix=".cli-", dir=Path(__file__).resolve().parent) as tmp:
        script_dir = Path(tmp)
        (script_dir / "bad.txt").write_text(BAD_SCRIPT, encoding="utf-8")
        for argv, check, refusal_ok, known_defect in _cli_plan(rng, script_dir, tiny):
            rec.cli(argv, check=check, refusal_ok=refusal_ok, known_defect=known_defect)


WORKLOADS = {
    "exact-blocks": exact_blocks,
    "numeric-crosscheck": numeric_crosscheck,
    "graded-gauge": graded_gauge,
    "cli-calls": cli_calls,
}
