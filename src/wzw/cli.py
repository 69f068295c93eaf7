"""Command-line front end.

Each subcommand returns (JSON document, text lines, passed) and `main` alone
prints: one deterministic JSON document under `--json`.  Exit status: 0 for
success and verification passes, 1 for a verification failure (including a
broken internal invariant), 2 for a usage error, a cap or a gauge-move budget.

Each subcommand imports the modules it uses inside its body, so one cold
process loads only those (`mpmath` only for `s-matrix` and `verify-all`).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import InvariantError

_WEIGHT_RE = re.compile(r"^\[(-?\d+(?:,-?\d+)*)\](?:x(\d+))?$")


def _parse_weights(tokens, datum):
    """Dynkin-label lists with an optional multiplicity suffix: [1,0]x3.

    The insertion count is checked against the cap before a token expands.
    """
    from .fusion import MAX_INSERTIONS

    out = []
    for tok in tokens:
        m = _WEIGHT_RE.match(tok.replace(" ", ""))
        if not m:
            raise ValueError(f"cannot parse weight token {tok!r}; expected [a,b,...] or [a,b,...]xN")
        labels = tuple(int(x) for x in m.group(1).split(","))
        count = int(m.group(2)) if m.group(2) else 1
        if len(out) + count > MAX_INSERTIONS:
            raise ValueError(f"more than {MAX_INSERTIONS} insertions (the cap)")
        out.extend([datum.weight(labels)] * count)
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_root_system(args):
    from .lie import LieAlgebraId, build_root_datum

    d = build_root_datum(LieAlgebraId.from_string(args.algebra))
    doc = {
        "algebra": str(d.algebra),
        "rank": d.rank,
        "dimension": d.dimension,
        "dual_coxeter": d.dual_coxeter,
        "weyl_order": d.weyl_order,
        "cartan_matrix": [list(row) for row in d.cartan],
        "marks": list(d.marks),
        "comarks": list(d.comarks),
        "highest_root_labels": list(d.theta_labels),
        "positive_roots": [list(b) for b in d.positive_roots],
    }
    human = [
        f"algebra {doc['algebra']}: rank {d.rank}, dimension {d.dimension}, "
        f"dual Coxeter number {d.dual_coxeter}, |W| = {d.weyl_order}",
        "cartan matrix: " + "; ".join(str(list(r)) for r in d.cartan),
        f"marks {doc['marks']}, comarks {doc['comarks']}",
        f"highest root labels {doc['highest_root_labels']}",
        f"{len(d.positive_roots)} positive roots (simple-root coordinates):",
    ] + [f"  {list(b)}" for b in d.positive_roots]
    return doc, human, True


def cmd_fusion(args):
    from .fusion import _fusion_matrix, fusion_ring
    from .lie import LieAlgebraId

    ring = fusion_ring(LieAlgebraId.from_string(args.algebra), args.level)
    table = []
    human = [f"fusion ring {ring.algebra} level {ring.level}, {len(ring.basis)} primaries"]
    for i, x in enumerate(ring.basis):  # rows of the checked matrices; the basis is in label order
        for y, row in zip(ring.basis[i:], _fusion_matrix(ring.algebra, ring.level, i)[i:]):
            product = [(w, m) for w, m in zip(ring.basis, row) if m]
            cells = [{"weight": list(w.labels), "multiplicity": m} for w, m in product]
            table.append({"x": list(x.labels), "y": list(y.labels), "product": cells})
            rhs = " + ".join(
                (f"{m}*" if m > 1 else "") + str(list(w.labels)) for w, m in product
            )
            human.append(f"  {list(x.labels)} * {list(y.labels)} = {rhs or '0'}")
    doc = {
        "algebra": str(ring.algebra),
        "level": ring.level,
        "basis": [list(w.labels) for w in ring.basis],
        "table": table,
    }
    return doc, human, True


def cmd_verlinde(args):
    from .fusion import CurveData, fusion_ring, verlinde_dim
    from .lie import LieAlgebraId, build_root_datum

    d = build_root_datum(LieAlgebraId.from_string(args.algebra))
    ring = fusion_ring(d.algebra, args.level)
    insertions = _parse_weights(args.weights or [], d)
    dim = verlinde_dim(ring, CurveData(args.genus, insertions))
    try:
        str(dim)
    except ValueError:  # longer than the interpreter's integer-to-string limit
        raise ValueError(
            "the dimension has too many digits to print; "
            "set PYTHONINTMAXSTRDIGITS to raise the limit (0 removes it)"
        ) from None
    doc = {"dimension": dim}
    return doc, [json.dumps(doc)], True


def cmd_smatrix(args):
    import mpmath as mp

    from .lie import LieAlgebraId
    from .smatrix import s_matrix

    sm = s_matrix(LieAlgebraId.from_string(args.algebra), args.level, args.precision)
    with mp.workdps(sm.precision):
        digits = min(sm.precision, 20)
        entries = [
            [
                {
                    "re": mp.nstr(mp.chop(z.real), digits),
                    "im": mp.nstr(mp.chop(z.imag), digits),
                }
                for z in row
            ]
            for row in sm.entries
        ]
        residual = mp.nstr(sm.unitarity_residual(), 3)
    doc = {
        "algebra": str(sm.algebra),
        "level": sm.level,
        "precision": sm.precision,
        "basis": [list(w.labels) for w in sm.basis],
        "entries": entries,
        "unitarity_residual": residual,
    }
    human = [
        f"S-matrix {sm.algebra} level {sm.level} at {sm.precision} digits, "
        f"unitarity residual {residual}"
    ]
    for w, row in zip(sm.basis, entries):
        parts = ", ".join(
            e["re"] if e["im"] == "0.0" else f"{e['re']}+{e['im']}i" for e in row
        )
        human.append(f"  {list(w.labels)}: [{parts}]")
    return doc, human, True


def cmd_embedding(args):
    from .embeddings import embedding_catalogue, embedding_report

    catalogue = embedding_catalogue()
    if args.action == "list":
        rows = [
            {
                "name": e.name,
                "factors": [[str(a), l] for a, l in e.factors],
                "ambient": str(e.ambient),
            }
            for e in catalogue.values()
        ]
        doc = {"embeddings": rows}
        human = [
            f"{r['name']}: " + " + ".join(f"{a} level {l}" for a, l in r["factors"]) + f" in {r['ambient']}"
            for r in rows
        ]
        return doc, human, True
    if args.name is None:
        raise ValueError("embedding check requires --name")
    embedding = catalogue.get(args.name)
    if embedding is None:
        raise ValueError(f"unknown embedding {args.name!r}; see `wzw embedding list`")
    report = embedding_report(embedding)
    doc = {
        "name": embedding.name,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in report.rows
        ],
        "passed": report.passed,
    }
    human = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in report.rows
    ] + [f"{embedding.name}: {'all checks pass' if report.passed else 'CHECK FAILED'}"]
    return doc, human, report.passed


def cmd_branch_verify(args):
    from .characters import g2_f4_branching_claim, verify_branching

    claim = g2_f4_branching_claim()
    report = verify_branching(claim, args.depth)
    rows = [
        {
            "depth": r.depth,
            "ambient_dim": r.ambient_dim,
            "summand_dims": list(r.summand_dims),
            "combined": r.combined,
            "matches": r.matches,
        }
        for r in report.rows
    ]
    doc = {
        "ambient": str(claim.ambient[0]),
        "factors": [str(a) for a, _ in claim.factors],
        "depth": args.depth,
        "rows": rows,
        "passed": report.passed,
    }
    human = [
        f"{'PASS' if r['matches'] else 'FAIL'} depth {r['depth']}: "
        f"ambient {r['ambient_dim']} vs summands {'+'.join(str(x) for x in r['summand_dims'])}"
        f" = {r['combined']}"
        for r in rows
    ]
    return doc, human, report.passed


def cmd_correlator(args):
    from .correlator import (
        PairingEnv,
        case_cartan_insertion,
        case_opposite_pair,
        case_vacua,
        parse_script,
        reduce_state,
    )

    if (args.case is None) == (args.script is None):
        raise ValueError("pass exactly one of --case or --script")
    if args.script is not None:
        with open(args.script, encoding="utf-8") as fh:
            state, env = parse_script(fh.read())
        doc = {"script": args.script}
    else:
        cases = {"I": case_vacua, "II": case_opposite_pair, "III": case_cartan_insertion}
        state = cases[args.case]()
        env = PairingEnv(level=args.level)
        doc = {"case": args.case}
    value = reduce_state(state, env)  # an exhausted budget is a ValueError: main exits 2
    doc["level"] = env.level
    doc["value"] = str(value)
    doc["terms"] = value.json_obj()
    return doc, [f"level {env.level}", f"value: {value}"], True


def cmd_pic_relation(args):
    from .picard import emit_relation, relation_json_obj

    rel = emit_relation(args.genus, args.markings)
    doc = relation_json_obj(rel)
    human = [
        f"4*lambda + psi_1..psi_{args.markings} =",
        f"  {doc['rhs']['g2_block']} * c1(G2 block) + {doc['rhs']['f4_block']} * c1(F4 block)",
    ]
    if "irr" in doc["rhs"]:
        human.append(f"  + {doc['rhs']['irr']} * delta_irr")
    for item in doc["rhs"]["boundary"]:
        human.append(f"  + {item['coeff']} * delta_({item['h']},{set(item['A']) or '{}'})")
    return doc, human, True


def cmd_verify_all(args):
    from .acceptance import run_all

    results = run_all()
    doc = {
        "criteria": [
            {"number": r.number, "title": r.title, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    human = [
        f"{'PASS' if r.passed else 'FAIL'}  criterion {r.number:2d}  {r.title}: {r.detail}"
        for r in results
    ]
    human.append(f"{sum(r.passed for r in results)}/{len(results)} acceptance criteria pass")
    return doc, human, doc["passed"]


# ---------------------------------------------------------------------------
# parser wiring


def _add_algebra_level(p):
    p.add_argument("--algebra", required=True, help="algebra name, e.g. G2, F4, E8, A1")
    p.add_argument("--level", type=int, required=True, help="nonnegative integer level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wzw",
        description="Exact level-one WZW computations: root systems, fusion, "
        "Verlinde dimensions, S-matrices, conformal embeddings, branching, "
        "gauge correlators, and boundary-divisor relations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("root-system", help="Cartan data and positive roots")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_root_system)

    p = sub.add_parser("fusion", help="full fusion table at a level")
    _add_algebra_level(p)
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("verlinde", help="conformal-block dimension")
    _add_algebra_level(p)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument(
        "--weights",
        nargs="*",
        metavar="W",
        help="insertions as Dynkin labels, e.g. [1,0] [0,1] or [1,0]x3",
    )
    p.set_defaults(func=cmd_verlinde)

    p = sub.add_parser("s-matrix", help="numeric modular S-matrix")
    _add_algebra_level(p)
    p.add_argument(
        "--precision",
        type=int,
        default=None,
        help="working digits (default: WZW_PRECISION env or 50)",
    )
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("embedding", help="conformal-embedding checks")
    p.add_argument("action", choices=("list", "check"))
    p.add_argument("--name", default=None, help="catalogue name for `check`")
    p.set_defaults(func=cmd_embedding)

    p = sub.add_parser("branch-verify", help="graded branching identity check")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_branch_verify)

    p = sub.add_parser("correlator", help="reduce a three-point gauge correlator")
    p.add_argument("--case", choices=("I", "II", "III"), default=None)
    p.add_argument("--script", default=None, help="path to a correlator script file")
    p.add_argument("--level", type=int, default=1, help="level for --case mode")
    p.set_defaults(func=cmd_correlator)

    p = sub.add_parser("pic-relation", help="boundary-divisor relation coefficients")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--markings", type=int, required=True)
    p.set_defaults(func=cmd_pic_relation)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.set_defaults(func=cmd_verify_all)

    for action in sub.choices.values():
        action.add_argument("--json", action="store_true", help="emit one JSON document")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, lines, passed = args.func(args)
        print(json.dumps(doc, indent=2) if args.json else "\n".join(lines))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
