"""Command-line behavior: outputs, exit codes, JSON determinism."""

import functools
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wzw import acceptance, cli, correlator, fusion, lie, picard, smatrix
from wzw.acceptance import CriterionResult
from wzw.fusion import MAX_GENUS, MAX_INSERTIONS, MAX_PRIMARIES
from wzw.lie import InvariantError, LieAlgebraId, build_root_datum
from wzw.qsqrt5 import closed_form_value


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verlinde_e8_any_genus(capsys):
    code, out, _ = run(capsys, "verlinde", "--algebra", "E8", "--level", "1", "--genus", "3")
    assert code == 0
    assert out.strip() == '{"dimension": 1}'


def test_verlinde_weight_shorthand(capsys):
    code, out, _ = run(
        capsys, "verlinde", "--algebra", "G2", "--level", "1", "--genus", "0",
        "--weights", "[1,0]x3",
    )
    assert code == 0
    assert json.loads(out) == {"dimension": 1}


def test_verlinde_mixed_weight_tokens(capsys):
    code, out, _ = run(
        capsys, "verlinde", "--algebra", "G2", "--level", "1", "--genus", "0",
        "--weights", "[1,0]x2", "[1,0]",
    )
    assert json.loads(out) == {"dimension": 1}
    code, out, _ = run(
        capsys, "verlinde", "--algebra", "F4", "--level", "1", "--genus", "2",
        "--weights", "[0,0,0,1]x0",
    )
    assert json.loads(out) == {"dimension": 5}


def test_verlinde_rejects_bad_tokens(capsys):
    for tok in ("1,0", "[1,0]x", "[1 0]", "[]", "[1,0]y3"):
        code, _, err = run(
            capsys, "verlinde", "--algebra", "G2", "--level", "1", "--genus", "0",
            "--weights", tok,
        )
        assert code == 2, tok
        assert "error" in err


def test_verlinde_rejects_overlevel_weight(capsys):
    code, _, err = run(
        capsys, "verlinde", "--algebra", "G2", "--level", "1", "--genus", "0",
        "--weights", "[0,1]",
    )
    assert code == 2
    assert "level-1" in err


def test_root_system_json(capsys):
    code, out, _ = run(capsys, "root-system", "--algebra", "G2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["cartan_matrix"] == [[2, -3], [-1, 2]]
    assert doc["dimension"] == 14
    assert len(doc["positive_roots"]) == 6


def test_root_system_rank_cap(capsys):
    code, out, _ = run(capsys, "root-system", "--algebra", f"A{lie.MAX_RANK}", "--json")
    assert code == 0
    assert json.loads(out)["rank"] == lie.MAX_RANK
    code, out, err = run(capsys, "root-system", "--algebra", f"B{lie.MAX_RANK + 1}", "--json")
    assert (code, out) == (2, "")
    assert err == f"error: rank {lie.MAX_RANK + 1} is above the cap {lie.MAX_RANK}\n"


def test_root_system_rank_with_thousands_of_digits(capsys):
    code, out, err = run(capsys, "root-system", "--algebra", "A" + "9" * 5000, "--json")
    assert (code, out, err) == (2, "", f"error: rank above the cap {lie.MAX_RANK}\n")
    code, out, _ = run(capsys, "root-system", "--algebra", "A" + "0" * 5000 + "1", "--json")
    assert code == 0
    assert json.loads(out)["rank"] == 1


def test_fusion_table_json(capsys):
    code, out, _ = run(capsys, "fusion", "--algebra", "F4", "--level", "1", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["basis"] == [[0, 0, 0, 0], [0, 0, 0, 1]]
    last = doc["table"][-1]
    assert last["x"] == last["y"] == [0, 0, 0, 1]
    assert last["product"] == [
        {"weight": [0, 0, 0, 0], "multiplicity": 1},
        {"weight": [0, 0, 0, 1], "multiplicity": 1},
    ]


def test_smatrix_json_and_precision_flag(capsys):
    code, out, _ = run(
        capsys, "s-matrix", "--algebra", "G2", "--level", "1", "--precision", "30", "--json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["precision"] == 30
    assert doc["entries"][0][0]["re"].startswith("0.5257311121")


def test_smatrix_env_precision(capsys, monkeypatch):
    monkeypatch.setenv("WZW_PRECISION", "25")
    code, out, _ = run(capsys, "s-matrix", "--algebra", "G2", "--level", "1", "--json")
    assert json.loads(out)["precision"] == 25


@pytest.mark.parametrize("value", ["0", "-3", "1", "14", str(smatrix.MAX_PRECISION + 1), "200000"])
def test_smatrix_precision_out_of_range_exits_two(capsys, monkeypatch, value):
    code, out, err = run(capsys, "s-matrix", "--algebra", "G2", "--level", "1", "--precision", value)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: precision must be between")
    monkeypatch.setenv("WZW_PRECISION", value)
    code, out, err = run(capsys, "s-matrix", "--algebra", "G2", "--level", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: WZW_PRECISION must be between")


def test_smatrix_precision_bounds_answer(capsys):
    for value in (smatrix.MIN_PRECISION, smatrix.MAX_PRECISION):
        code, out, _ = run(capsys, "s-matrix", "--algebra", "G2", "--level", "1", "--precision", str(value), "--json")
        assert code == 0 and json.loads(out)["precision"] == value


def test_smatrix_work_cap(capsys, monkeypatch):
    d = build_root_datum(LieAlgebraId("G", 2))
    work = smatrix.matrix_work(d, 4, (2 + d.dual_coxeter) * d.denominator)  # level 2: 4 primaries
    monkeypatch.setattr(smatrix, "MAX_MATRIX_WORK", work)
    code, out, _ = run(capsys, "s-matrix", "--algebra", "G2", "--level", "2", "--json")
    assert code == 0 and len(json.loads(out)["basis"]) == 4
    monkeypatch.setattr(smatrix, "MAX_MATRIX_WORK", work - 1)
    code, out, err = run(capsys, "s-matrix", "--algebra", "G2", "--level", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err


@pytest.mark.parametrize("level", ["12", "1000000"])
def test_smatrix_refuses_above_the_cap_fast(capsys, level):
    start = time.perf_counter()
    code, out, err = run(capsys, "s-matrix", "--algebra", "F4", "--level", level)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err


@pytest.mark.parametrize("algebra,level", [("D7", "0"), ("E8", "1")])
def test_smatrix_large_weyl_group_is_refused_by_the_work_cap(capsys, algebra, level):
    start = time.perf_counter()
    code, out, err = run(capsys, "s-matrix", "--algebra", algebra, "--level", level)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {algebra} level {level}: S-matrix work is at least ")
    assert f"over the cap {smatrix.MAX_MATRIX_WORK}" in err and "s_matrix_column" in err


def test_embedding_list_and_check(capsys):
    code, out, _ = run(capsys, "embedding", "list", "--json")
    doc = json.loads(out)
    assert code == 0
    assert any(e["name"] == "g2xf4-in-e8" for e in doc["embeddings"])

    code, out, _ = run(capsys, "embedding", "check", "--name", "g2xf4-in-e8")
    assert code == 0
    assert "all checks pass" in out

    code, _, err = run(capsys, "embedding", "check", "--name", "no-such")
    assert code == 2
    assert "unknown embedding" in err

    code, _, err = run(capsys, "embedding", "check")
    assert code == 2


def test_branch_verify(capsys):
    code, out, _ = run(capsys, "branch-verify", "--depth", "2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert [r["ambient_dim"] for r in doc["rows"]] == [1, 248, 4124]


def test_branch_verify_depth_cap(capsys):
    from wzw.characters import MAX_BRANCH_DEPTH

    code, out, err = run(capsys, "branch-verify", "--depth", str(MAX_BRANCH_DEPTH + 1), "--json")
    assert (code, out) == (2, "")
    assert err == f"error: depth {MAX_BRANCH_DEPTH + 1} is not between 0 and the cap {MAX_BRANCH_DEPTH}\n"
    code, out, _ = run(capsys, "branch-verify", "--depth", str(MAX_BRANCH_DEPTH), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["rows"]) == MAX_BRANCH_DEPTH + 1


def test_correlator_cases(capsys):
    code, out, _ = run(capsys, "correlator", "--case", "I", "--json")
    assert code == 0
    assert json.loads(out)["value"] == "1"

    code, out, _ = run(capsys, "correlator", "--case", "II", "--level", "3", "--json")
    assert json.loads(out)["value"] == "-3*xa"

    code, out, _ = run(capsys, "correlator", "--case", "III")
    assert "bH*xb" in out


def test_correlator_script(capsys, tmp_path):
    script = tmp_path / "s.txt"
    script.write_text("level 2\nslot2: X+a(-1)\nslot3: X-a(-1)\n")
    code, out, _ = run(capsys, "correlator", "--script", str(script), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["level"] == 2
    assert doc["value"] == "-2*xa"

    code, _, err = run(capsys, "correlator", "--script", str(tmp_path / "missing.txt"))
    assert code == 2

    code, _, err = run(capsys, "correlator")
    assert code == 2
    assert "exactly one" in err

    code, _, err = run(capsys, "correlator", "--case", "I", "--script", str(script))
    assert code == 2


def test_correlator_script_with_two_levels_exits_two(capsys, tmp_path):
    script = tmp_path / "s.txt"
    script.write_text("level 2\nlevel 5\nslot2: X+a(-1)\nslot3: X-a(-1)\n")
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, "correlator", "--script", str(script), *flags)
        assert (code, out, err) == (2, "", "error: level given twice\n")


def test_pic_relation(capsys):
    code, out, _ = run(capsys, "pic-relation", "--genus", "2", "--markings", "0", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["rhs"]["irr"] == "3/5"
    assert doc["rhs"]["boundary"] == [{"h": 1, "A": [], "coeff": "1/5"}]

    code, _, err = run(capsys, "pic-relation", "--genus", "0", "--markings", "2")
    assert code == 2
    assert "not stable" in err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _cold(*argv):
    """One fresh `python -m wzw.cli` process under a 2 GB address-space limit: (seconds, result)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "wzw.cli", *argv],
        capture_output=True, env=env, text=True, preexec_fn=_limit_address_space, timeout=60,
    )
    return time.perf_counter() - start, done


def _assert_fast_refusal(seconds, done, what):
    assert seconds < 1, what
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ") and "cap" in done.stderr


def test_pic_relation_refuses_oversized_input_fast():
    # fresh processes under a 2 GB address-space limit, so a huge 2^n cannot be built
    for markings in ("22", "100000000000"):
        _assert_fast_refusal(*_cold("pic-relation", "--genus", "1", "--markings", markings), markings)


@pytest.mark.parametrize("g, n", [(2832, 0), (0, 16)])
def test_pic_relation_answers_at_the_cap_and_refuses_one_past(g, n):
    # the price (g + 1)(1 + g/128) 2^n grows with the digits of F: (2832, 0) is the last
    # admitted genus without markings, and (0, 16) the last admitted marking count
    cap = picard.MAX_RELATION_SIZE << 7
    past = (g + 1, n) if n == 0 else (g, n + 1)
    assert (g + 1) * (g + 128) << n <= cap < (past[0] + 1) * (past[0] + 128) << past[1]
    _, done = _cold("pic-relation", "--genus", str(g), "--markings", str(n), "--json")
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["rhs"]["g2_block"] == str(Fraction(1, closed_form_value(g, n)))
    _assert_fast_refusal(*_cold("pic-relation", "--genus", str(past[0]), "--markings", str(past[1])), past)


@pytest.mark.parametrize("g, n", [(4095, 3), (16000, 0), (65535, 0), (10**30, 1)])
def test_pic_relation_refuses_a_large_genus_before_any_closed_form_value(g, n):
    # each of these took seconds to minutes, or failed converting F to a string, below the old cap
    _assert_fast_refusal(*_cold("pic-relation", "--genus", str(g), "--markings", str(n)), (g, n))


@pytest.mark.parametrize(
    "args,gn",
    [(["--genus", "1500"], (1500, 0)), (["--genus", "0", "--weights", "[1,0]x3000"], (0, 3000))],
)
def test_verlinde_large_genus_and_insertions_answer(capsys, args, gn):
    code, out, _ = run(capsys, "verlinde", "--algebra", "G2", "--level", "1", *args, "--json")
    assert code == 0
    assert json.loads(out) == {"dimension": closed_form_value(*gn)}


@pytest.mark.parametrize(
    "args",
    [
        ["--genus", str(MAX_GENUS + 1)],
        ["--genus", "0", "--weights", f"[1,0]x{MAX_INSERTIONS + 1}"],
        ["--genus", "0", "--weights", f"[1,0]x{MAX_INSERTIONS}", "[0,0]"],
    ],
)
def test_verlinde_refuses_above_the_caps(capsys, args):
    code, out, err = run(capsys, "verlinde", "--algebra", "G2", "--level", "1", *args)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err


def test_primaries_cap_at_the_cap_and_one_above(capsys):
    # A1 at level L has L + 1 primaries, and the lower bound is exact there
    code, out, _ = run(capsys, "verlinde", "--algebra", "A1", "--level", str(MAX_PRIMARIES - 1), "--genus", "0")
    assert (code, json.loads(out)) == (0, {"dimension": 1})
    refusals = [
        ["fusion", "--algebra", "A1", "--level", str(MAX_PRIMARIES)],
        ["verlinde", "--algebra", "A1", "--level", "3000000", "--genus", "0"],
        ["verlinde", "--algebra", "A4", "--level", "200", "--genus", "0", "--weights", "[1,0,0,0]", "[0,0,0,1]"],
    ]
    for argv in refusals:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith("error: ") and f"over the cap {MAX_PRIMARIES}" in err


def test_verlinde_too_long_to_print_exits_two(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        code, out, err = run(capsys, "verlinde", "--algebra", "G2", "--level", "1", "--genus", "10000")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "too many digits to print" in err and "PYTHONINTMAXSTRDIGITS" in err
    assert "set_int_max_str_digits" not in err


def test_correlator_budget_overrun_exits_two(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(correlator, "reduce_state", functools.partial(correlator.reduce_state, budget=1))
    script = tmp_path / "s.txt"
    script.write_text("level 2\nslot1: H(-1) H(-1)\nslot2: X+a(-1) X+a(-1)\nslot3: X-a(-1) X-a(-1)\n")
    code, out, err = run(capsys, "correlator", "--script", str(script))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "gauge moves" in err


@pytest.mark.parametrize(
    "slots, least",
    [
        # highest slot first stopped at the 10,000-move budget (exit 2); the value 0 is
        # the null-vector relation X+a(-1)^(level+1) = 0
        ((" H(-1)" * 8, " X+a(-1)" * 8, " X-a(-1)" * 8), 13),
        # highest slot first answered 0 too, in 4,005 moves
        ((" H(-1000)", " X+a(-1000) X-a(-1)", " X-a(-1000) X+a(-1)"), 1006),
    ],
    ids=["null-vector", "deep-modes"],
)
def test_correlator_scripts_of_the_caps_paragraph_answer_zero(capsys, monkeypatch, tmp_path, slots, least):
    script = tmp_path / "s.txt"
    script.write_text("level 3\n" + "".join(f"slot{i}:{words}\n" for i, words in enumerate(slots, 1)))
    code, out, _ = run(capsys, "correlator", "--script", str(script), "--json")
    assert code == 0 and json.loads(out)["terms"] == []
    reduce_state = correlator.reduce_state
    for budget, expected in ((least - 1, 2), (least, 0)):
        monkeypatch.setattr(correlator, "reduce_state", functools.partial(reduce_state, budget=budget))
        assert run(capsys, "correlator", "--script", str(script), "--json")[0] == expected



def test_correlator_script_with_long_commuting_runs_answers_within_the_default_budget(capsys, tmp_path):
    # H(-3)^8 / X+a(-3)^8 / X-a(-3)^8 at level 3 answers after 256 gauge moves: terms
    # keyed by their slot words in the order the pushes produce them took 27,319 moves
    # and exited 2 at the default budget of 10,000; the value was captured from such a
    # run at a raised budget
    script = tmp_path / "s.txt"
    script.write_text("level 3\n" + "".join(f"slot{i}:{f' {op}(-3)' * 8}\n" for i, op in enumerate(("H", "X+a", "X-a"), 1)))
    code, out, _ = run(capsys, "correlator", "--script", str(script), "--json")
    assert code == 0
    value = json.loads(out)["value"]
    assert hashlib.sha256(value.encode()).hexdigest() == "8f4702c7febfb1382e77b43110ed8f3e870052d69bcfe66ce82a4bfc82fc1ea8"


def test_correlator_script_operator_cap(capsys, tmp_path):
    # the cap bounds time: a script over it exits 2 with one line, one under it answers
    script = tmp_path / "s.txt"
    script.write_text("slot1: X+a(0)" + " H(-1)" * 1200 + "\n")
    code, out, err = run(capsys, "correlator", "--script", str(script))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    assert str(correlator.MAX_SCRIPT_OPERATORS) in err

    script.write_text("slot1: X+a(0)" + " H(-1)" * (correlator.MAX_SCRIPT_OPERATORS - 1) + "\n")
    code, out, _ = run(capsys, "correlator", "--script", str(script), "--json")
    assert code == 0 and json.loads(out)["value"] == "0"


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 2), (10**23, 2)])
def test_correlator_script_depth_cap(tmp_path, extra, code):
    # the reduction keeps one layer per unit of depth, so a deep script is refused at the
    # parse, in a fresh process under a 2 GB address-space limit
    script = tmp_path / "s.txt"
    script.write_text(f"slot1: H(-{correlator.MAX_SCRIPT_DEPTH + extra})\n")
    seconds, done = _cold("correlator", "--script", str(script), "--json")
    if code == 0:
        assert done.returncode == 0 and json.loads(done.stdout)["value"] == "0"
    else:
        _assert_fast_refusal(seconds, done, extra)
        assert str(correlator.MAX_SCRIPT_DEPTH) in done.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ("slot1: H(-" + "9" * 5000 + ")\n", f"more than {correlator.MAX_SCRIPT_DEPTH} in absolute value (the cap)"),
        ("level " + "9" * 5000 + "\n", "level has 5000 digits"),
    ],
    ids=["mode", "level"],
)
def test_correlator_script_refuses_a_huge_digit_string(capsys, tmp_path, text, message):
    # refused by the package before int() meets the digits and raises Python's own limit error
    script = tmp_path / "s.txt"
    script.write_text(text)
    code, out, err = run(capsys, "correlator", "--script", str(script))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert "set_int_max_str_digits" not in err


# sha256 of the --json stdout, pinned so a refactor cannot change any byte
PINNED_JSON_DIGESTS = {
    "root-system --algebra G2": "fb9ccb837196d4c477b4f1874b93822cd58bdd1c51b0c5195c0faf22ced2727c",
    "root-system --algebra F4": "bfa723a2bc8e86c9d87f90bcc33b8a8dd00bfad8a49c4ea71ad39c6c318f3dff",
    "root-system --algebra E8": "3a6e21d8a46cfc8c0ebaf0dc289eb42dc17df12a896d2b3503fe55c0f30e62de",
    "fusion --algebra G2 --level 1": "e517996ef840661a63fcbc299c02eeb0c241918d568aee8f4846bfd57df5c6f4",
    "fusion --algebra G2 --level 2": "9937edd8004a8c4f5e1983e592f66a9da5f4cf6b96e2a686efe580a23b7c945b",
    "fusion --algebra G2 --level 3": "dd82579e23cbf0a1d6ac94f329143c260a4598cf817ef8895ca2386dc43c4c66",
    "fusion --algebra F4 --level 1": "aac914b4e0cda088669c47da22985030ae3a6c0ab48d0c49273e307845abc6a7",
    "fusion --algebra F4 --level 2": "2f91e1d0c1033311dfe03d4dd4bcf7e73572aab4bb429f210b7284fa97ecad9b",
    "fusion --algebra F4 --level 3": "a975902849a2bf8e7c9d8c1c3a0a2896a717f86cc52ab45ce90f3c972b8c1a7e",
    "verlinde --algebra E8 --level 1 --genus 3": "07718467b3a10ae2fa99fdd28c2d396d0342d530ae0fcf4de826ca91d8126f9a",
    "verlinde --algebra G2 --level 1 --genus 0 --weights [1,0]x3": (
        "07718467b3a10ae2fa99fdd28c2d396d0342d530ae0fcf4de826ca91d8126f9a"
    ),
    "verlinde --algebra F4 --level 1 --genus 3": "bacbb13354d7a35c8bcef14ec4ac6a38818e12e971da39671ba932ee0532528a",
    "verlinde --algebra G2 --level 3 --genus 0 --weights [1,0] [0,1] [1,1] [2,0]": (
        "a1014efde703cdee1fb925dab77e239ba1f402c514933baafe7c54a9acbf9591"
    ),
    "verlinde --algebra G2 --level 3 --genus 1 --weights [1,0]x2 [3,0]": (
        "3d628855229f36712b414e03b29a511ea0dd2bea853b80256da48eb6a3ddb224"
    ),
    "verlinde --algebra G2 --level 3 --genus 2 --weights [0,1] [1,1]": (
        "1e91b21a1c614d73d0530b4342ad707ee79567de4b3fd4271074a5526c841ccf"
    ),
    "verlinde --algebra F4 --level 2 --genus 0 --weights [0,0,0,1]x3 [0,0,1,0] [1,0,0,0]": (
        "7ad2bbf055cc9d50d2ff36b26ceada02c335232abc0049b4cd0dd1292911c6e0"
    ),
    "verlinde --algebra F4 --level 2 --genus 1 --weights [0,0,0,2] [1,0,0,0]": (
        "db8aeea14ba50777c638884d810351d6acb998f69ef2cac72906c58528825ede"
    ),
    "verlinde --algebra F4 --level 2 --genus 2 --weights [0,0,0,1] [0,0,1,0]": (
        "a6385d769f8d7aab97b6d912c866ed30c1d65327a82f5d522b4fb8f930088357"
    ),
    "pic-relation --genus 1 --markings 3": "5ccef8ed0495c7729922c5add63e5d8ebe53f4d361af9bf27ef0b014f07568c4",
    "pic-relation --genus 2 --markings 4": "f237283ac161b4bd41124f82b4ad7f8b78e62eb58f74704f0f0ca80d712f16a8",
    "correlator --case I": "5ba24aa608c822a1231a297d2bc7b9ac9a0529344cb1c6c265c3150791b66582",
    "correlator --case II": "7b045b7097ce518e46b77588522bc9cbf928cad31badf8dd90784c701d8e7c78",
    "correlator --case III": "51c55e9e202280bfccc710e3f840961542889938d26a64445a034c449766cb4a",
    "correlator --case III --level 4": "20fdb89d13fa56ac2da40cda5079605d085bee910a4134b0480e642f2297cd54",
    "correlator --script h3x3.txt": "74d448391bf21e21e39fff542ab036fcea9c4f9c001aa3852f8ec0a3664f3a44",
    "correlator --script mixed.txt": "e69f5aa924f4654c79eb22fc409ca6e868c191e47bf620ef19d267f77b64e1b8",
    "correlator --script deep.txt": "064f43dd8edf55bcd0896ea379e8969fab208a17bbdbc7bcc8be84c78ce01ad2",
    "embedding list": "e379b9b9c59ef30e5c7c0aad3c7dae778d11abaf6b6e0bd4827271db8bed2d3e",
    "branch-verify": "ced71038afd12ab316a52f4d2053972f05fd68a6b6f4aaf1dcc87fd4964250de",
}


# sha256 of the human-readable stdout of the same commands, plus one embedding
# check; verify-all stays out, since criterion 7 prints its wall time
PINNED_TEXT_DIGESTS = {
    "root-system --algebra G2": "f3aac1908298cc917a4dc69fb1d828df895a6925b6175e79722457af73c1d696",
    "root-system --algebra F4": "75f9e38a93be54ac550e13bcf531a3f40a7549d992a02bbaa3016818feb486a8",
    "root-system --algebra E8": "f13ca8dc154616660d75c9cb166d924b88f652a12bee9b97985a7ace4302ccea",
    "fusion --algebra G2 --level 1": "a3d29a81632562c888b8a8fbb56bb778c1715c4c295e567c3ea6ca046d9beb68",
    "fusion --algebra G2 --level 2": "41480bead58e13a52c342f839c8ec879a38bd19e2ff7a96658c43a7fa7a88460",
    "fusion --algebra G2 --level 3": "f5ee018713d6b72640550f39ee2fd18ce7c082f0239c7bd8074aa4e2157a057b",
    "fusion --algebra F4 --level 1": "333775fadd1477d0a58bfcd1d347861c26db376d53fac8cb7297e9967d6d20a3",
    "fusion --algebra F4 --level 2": "d1e34f4ab64a90dc0f10dcd631c0f277a4fabc543d27e5ccbc6758dbeed146a7",
    "fusion --algebra F4 --level 3": "a91a8793bc89ee1de508abe8a6070c722eb05e213bebeed1d06a45686ca4d194",
    "verlinde --algebra E8 --level 1 --genus 3": "932761d0ce99d3aa143d35c76f79a2c3dd7ecd54b55e6bc157147bb30e3e2df5",
    "verlinde --algebra G2 --level 1 --genus 0 --weights [1,0]x3": (
        "932761d0ce99d3aa143d35c76f79a2c3dd7ecd54b55e6bc157147bb30e3e2df5"
    ),
    "verlinde --algebra F4 --level 1 --genus 3": "760df68b07d6f061263cab1908bedecb46240075551c2d08b1cccb4cb0bb4803",
    "verlinde --algebra G2 --level 3 --genus 0 --weights [1,0] [0,1] [1,1] [2,0]": (
        "69bb678596ce5127036c450bcb583d995fba55162a4697f3f871120ca0282a7e"
    ),
    "verlinde --algebra G2 --level 3 --genus 1 --weights [1,0]x2 [3,0]": (
        "f1558a027027969b47ddc92d3bb9b8134aab3f4bfd3dfa2f535a20f1f16f9e52"
    ),
    "verlinde --algebra G2 --level 3 --genus 2 --weights [0,1] [1,1]": (
        "53de394ec78b794b7995ab6e0c23e3946fd32e53019b92f90ddc3fca6fac597e"
    ),
    "verlinde --algebra F4 --level 2 --genus 0 --weights [0,0,0,1]x3 [0,0,1,0] [1,0,0,0]": (
        "6cb8e636518610c449ac41d0160ed045b1f3077d7b1b8fba47d5da8d7e7d80e5"
    ),
    "verlinde --algebra F4 --level 2 --genus 1 --weights [0,0,0,2] [1,0,0,0]": (
        "e308b17d29a02c0616299f150a8b84d66c0598868ad3a156198f4bfc2cf15ddb"
    ),
    "verlinde --algebra F4 --level 2 --genus 2 --weights [0,0,0,1] [0,0,1,0]": (
        "4df106ba335adb7f5846bce0d5df3473603a07f8506d0c2d8bcc90e0f21febd9"
    ),
    "pic-relation --genus 1 --markings 3": "a22a9523a01f38e9f44e1089e1646af9dc2f0905710c859e275743e3d752a1cb",
    "pic-relation --genus 2 --markings 4": "ad5c06bf3ed3a04777e77611fcc67f2466d7f634efa8903566dc72f168e8819d",
    "correlator --case I": "f64aa75c635a85a7eccb40d8ca25e2c667fbb8f8ed813dce3f20fbafe95edf5a",
    "correlator --case II": "982cee96096f693f9947e96bdc348a4d8863d28ee4ec9729fe4fad398bbf28e8",
    "correlator --case III": "dcccf62c78c29da8edc4cb91efc277ebce1ae4f927b6ed83370e9f51c77580a7",
    "correlator --case III --level 4": "a5bf9070b2adff2ee104b9177369b3f90afb84005c29e2385f71807d033e7528",
    "correlator --script h3x3.txt": "e9a6adea67118c09604d54cd5dfc208623b7d8e4b25862f25a5b966a4a860c18",
    "correlator --script mixed.txt": "3baacee7c453c76ada1aeaa60fe1fadac1b4f0a4a8c5c8c7f9f9bac5796e8a43",
    "correlator --script deep.txt": "35a08e43e70372e437bb5d145047904771dded78b3556362968464bd3cfdc3a2",
    "embedding list": "4feb0d221453790cfaf69785e94e1ccefe5e79b9afae3363d2c632f7d22109d2",
    "branch-verify": "fde07d668a4928ed26d334f7eece385d8e53aa52c9260899365ac59f36085a18",
    "embedding check --name g2xf4-in-e8": "d679c23a1e7c1e866fffa8c7edfc9c3c305122ab3a0ddd6dd942240e1bcf03fd",
}


# sha256 of the `verify-all --json` stdout with criterion 7's wall time masked; criteria
# 3-5 and 10 read fusion through verlinde_dim and coefficient, so any other changed byte fails
VERIFY_ALL_JSON_DIGEST = "f2b82b64b25979da9df7601302360efa8633a8d8b97aeb275dd0fbeaded790bd"


def test_verify_all_json_byte_stable_but_for_the_wall_time(capsys):
    code, out, _ = run(capsys, "verify-all", "--json")
    assert code == 0
    masked = re.sub(r'; [0-9.]+s"', '; <t>s"', out)
    assert hashlib.sha256(masked.encode()).hexdigest() == VERIFY_ALL_JSON_DIGEST


# the scripts behind the --script pins, written under these names (the JSON
# records the path); mixed.txt (depth 7) and deep.txt (depth 9) carry
# nonnegative modes inside words
PINNED_SCRIPTS = {
    "h3x3.txt": (
        "level 3\nslot1: H(-1) H(-1) H(-1)\nslot2: X+a(-1) X+a(-1) X+a(-1)\n"
        "slot3: X-a(-1) X-a(-1) X-a(-1)\n"
    ),
    "mixed.txt": (
        "level 3\nslot1: H(-1) X+a(1) X-a(-2)\nslot2: X+a(-2) H(-1)\n"
        "slot3: X-a(-1) X+a(0) X-a(-1)\n"
    ),
    "deep.txt": (
        "level 3\nslot1: H(-2) X+a(-1) X-a(1) X+a(-1)\nslot2: X-a(-3) H(-1)\n"
        "slot3: H(-1) X+a(0) X-a(-1)\n"
    ),
}


def test_json_outputs_byte_stable(capsys, monkeypatch, tmp_path):
    for name, text in PINNED_SCRIPTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    fixed_commands = [
        ("root-system", "--algebra", "F4", "--json"),
        ("fusion", "--algebra", "G2", "--level", "2", "--json"),
        ("verlinde", "--algebra", "G2", "--level", "1", "--genus", "4", "--json"),
        ("s-matrix", "--algebra", "G2", "--level", "2", "--json"),
        ("pic-relation", "--genus", "1", "--markings", "3", "--json"),
        ("correlator", "--case", "III", "--json"),
        ("embedding", "list", "--json"),
    ]
    for argv in fixed_commands:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second, argv
    for command, digest in PINNED_JSON_DIGESTS.items():
        code, out, _ = run(capsys, *command.split(), "--json")
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_text_outputs_byte_stable(capsys, monkeypatch, tmp_path):
    for name, text in PINNED_SCRIPTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for command, digest in PINNED_TEXT_DIGESTS.items():
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


@pytest.mark.parametrize(
    "argv",
    [
        ["fusion", "--algebra", "F4", "--level", "2", "--json"],
        ["verlinde", "--algebra", "F4", "--level", "1", "--genus", "3", "--json"],
    ],
)
def test_optimized_interpreter_gives_identical_stdout(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    outputs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "wzw.cli", *argv],
            capture_output=True, check=True, env=env,
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert outputs[0] == outputs[1] and outputs[0]


def _loaded_after(code):
    """Module names from `names` in sys.modules after running code in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    probe = code + "\nimport json, sys\nprint(json.dumps([n for n in names if n in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, check=True, env=env, text=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_no_subcommand_loads_dataclasses_or_inspect():
    # records are named tuples: no run pays for dataclasses and the inspect, ast and dis it imports
    names = ["dataclasses", "inspect"]
    bare = _loaded_after(f"names = {names}")
    first = {}
    for command in PINNED_JSON_DIGESTS:
        first.setdefault(command.split()[0], command.split() + ["--json"])
    for argv in first.values():
        code = f"names = {names}\nfrom wzw import cli\nassert cli.main({argv!r}) == 0"
        assert _loaded_after(code) == bare, argv


def test_importing_the_cli_loads_no_heavy_module():
    heavy = ["mpmath", "wzw.smatrix", "wzw.correlator", "wzw.characters", "wzw.acceptance"]
    assert _loaded_after(f"names = {heavy}\nimport wzw.cli") == []


def test_root_system_does_not_load_mpmath():
    code = 'names = ["mpmath"]\nfrom wzw import cli\ncli.main(["root-system", "--algebra", "G2", "--json"])'
    assert _loaded_after(code) == []


def test_correlator_does_not_load_the_lie_kernel():
    code = 'names = ["wzw.lie"]\nfrom wzw import cli\ncli.main(["correlator", "--case", "I", "--json"])'
    assert _loaded_after(code) == []


def test_broken_invariant_exits_one_with_one_line(capsys, monkeypatch):
    def broken(ring, curve):
        raise InvariantError("planted failure")

    monkeypatch.setattr(fusion, "verlinde_dim", broken)
    code, out, err = run(capsys, "verlinde", "--algebra", "G2", "--level", "1", "--genus", "2")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "planted failure" in err


def test_fusion_prints_only_a_checked_table(capsys, monkeypatch):
    # N_tau,tau^vac raised to 2 breaks N_xy^z = N_xz*^y*; the table must not print it
    # (it is entry 0 of the row of basis indices (1, 1))
    real = fusion._kac_walton
    g2 = LieAlgebraId("G", 2)

    def planted(algebra, level, a, b):
        row = real(algebra, level, a, b)
        return (row[0] + 1,) + row[1:] if (algebra, level, a, b) == (g2, 1, 1, 1) else row

    fusion._fusion_matrix.cache_clear()
    monkeypatch.setattr(fusion, "_kac_walton", planted)
    try:
        code, out, err = run(capsys, "fusion", "--algebra", "G2", "--level", "1", "--json")
    finally:
        fusion._fusion_matrix.cache_clear()
    assert (code, out) == (1, "")
    assert err == (
        "error: internal invariant failed: G2 level 1: fusion table breaks "
        "N_xy^z = N_xz*^y* at x = [1,0]\n"
    )


def test_verify_all_reports_each_criterion(capsys, monkeypatch):
    fake = [
        CriterionResult(1, "alpha", True, "fine"),
        CriterionResult(2, "beta", True, "fine"),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: fake)
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert out.count("PASS") == 2
    assert "2/2" in out


def test_verify_all_exit_one_on_failure(capsys, monkeypatch):
    fake = [
        CriterionResult(1, "alpha", True, "fine"),
        CriterionResult(2, "beta", False, "broken"),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: fake)
    code, out, _ = run(capsys, "verify-all", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["criteria"][1]["detail"] == "broken"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verlinde", "--algebra", "G2"])  # missing required flags
    assert exc.value.code == 2
    code, _, err = run(capsys, "root-system", "--algebra", "Q9")
    assert code == 2
    assert "cannot parse algebra" in err
