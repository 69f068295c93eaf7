"""Source-level guards: checks survive python -O, cross-checks stay independent,
and each public name resolves through the one module that defines it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wzw

SRC = Path(wzw.__file__).resolve().parent


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _names_used(tree, roots):
    """Names referenced by the given top-level functions and, transitively,
    by the module-level functions they call."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo, names = set(), list(roots), set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if node.id in defs:
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_assert_statements_in_package():
    # assert vanishes under python -O; invariants raise InvariantError instead
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


# What each module imports from the package, anywhere in it: a submodule by
# name, or a name of the package itself.  The closed form, an integer trace in
# Z[phi], the integers of Q(sqrt 5), lives in qsqrt5, which reaches neither the
# block recursion nor the Lie kernel and which fusion does not import, and
# smatrix reaches no fusion code, so the cross-checks stay independent.
IMPORT_GRAPH = {
    "lie": {"InvariantError"},
    "qsqrt5": {"InvariantError"},
    "correlator": set(),
    "smatrix": {"lie"},
    "embeddings": {"lie"},
    "characters": {"lie"},
    "picard": {"qsqrt5"},
    "fusion": {"lie"},
    "acceptance": {"characters", "correlator", "embeddings", "fusion", "lie", "picard", "qsqrt5", "smatrix"},
}


def _package_imports(module):
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "wzw"):
            path = (node.module or "").split(".")
            path = path[1:] if node.level == 0 else path
            found |= {path[0]} if path and path[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name.split(".") + ["wzw"])[1] for a in node.names if a.name.split(".")[0] == "wzw"}
    return found


@pytest.mark.parametrize("module", sorted(IMPORT_GRAPH))
def test_intra_package_imports_follow_the_graph(module):
    assert _package_imports(module) == IMPORT_GRAPH[module]


def test_closed_form_stays_in_integers():
    # the closed form is pairs of ints in Z[phi]: no Fraction field arithmetic and
    # no number class, so the general field class does not drift back in
    tree = _tree("qsqrt5")
    imported = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {(n.module or "").split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "fractions" not in imported
    assert not any(isinstance(n, ast.ClassDef) for n in ast.walk(tree))


def _closure(module):
    """The module and every module it reaches through IMPORT_GRAPH."""
    found, todo = set(), [module]
    while todo:
        m = todo.pop()
        if m in IMPORT_GRAPH and m not in found:  # InvariantError is a package name, not a module
            found.add(m)
            todo.extend(IMPORT_GRAPH[m])
    return found


def _defined_names(module):
    """Names bound at the top level of a module by def, class or assignment."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


_DEFINER = {name: path.stem for path in SRC.glob("*.py") for name in _defined_names(path.stem)}


def test_every_export_is_defined_by_its_owner():
    # a name defined in the package itself is bound at import and never resolved through its owner
    strays = [name for name, owner in wzw._OWNER.items() if _DEFINER[name] not in (owner, "__init__")]
    assert strays == []


@pytest.mark.parametrize("definer", sorted({_DEFINER[name] for name in wzw.__all__}))
def test_an_export_loads_only_its_definer_and_what_that_imports(definer):
    # a fresh interpreter, since the test run has long since imported every submodule
    names = [name for name in wzw.__all__ if _DEFINER[name] == definer]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = f"import sys, wzw\nfor n in {names!r}: getattr(wzw, n)\nprint(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, env=env, text=True)
    loaded = {m.removeprefix("wzw.") for m in out.stdout.split() if m.startswith("wzw.")}
    assert loaded <= _closure(definer), names
    assert definer in loaded or definer == "__init__"


def test_no_module_imports_a_sibling_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.stem}:{node.lineno} {a.asname or a.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for a in node.names
            if (a.asname or a.name) not in used
        ]
    assert unused == []


@pytest.mark.parametrize(
    "module,absent",
    [("wzw.picard", ["wzw.lie", "wzw.fusion"]), ("wzw.characters", ["wzw.embeddings"])],
)
def test_fresh_import_leaves_unused_modules_unloaded(module, absent):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = f"import sys, {module}; print([n for n in {absent!r} if n in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, env=env, text=True)
    assert out.stdout.strip() == "[]"


def test_lattice_oracle_touches_no_lie_name():
    lie_names = {
        n.name for n in _tree("lie").body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    lie_names |= {
        a.asname or a.name
        for node in ast.walk(_tree("characters"))
        if isinstance(node, ast.ImportFrom) and node.module == "lie"
        for a in node.names
    }
    used = _names_used(_tree("characters"), ["lattice_shell_counts", "lattice_character_dims"])
    assert used & lie_names == set()


def test_fusion_leaves_the_fold_to_the_kernel():
    # wall tests after a fold live only in lie._shifted_fold and sign sums in lie.fold_sum,
    # and a fusion product is one alcove fold, with no classical tensor product on the way
    tree = _tree("fusion")
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "fold" not in names and "fold_sum" in names
    assert "tensor_decompose" not in names


def test_characters_leave_the_parabolic_fold_to_the_kernel():
    # the W_J-orbit classes of roots live in lie and come from its one chamber
    # fold, not from reflections written out against the Cartan columns
    defs = {n.name: n for n in _tree("lie").body if isinstance(n, ast.FunctionDef)}
    names = {n.id for n in ast.walk(defs["orbit_classes"]) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(defs["orbit_classes"]) if isinstance(n, ast.Attribute)}
    assert "cartan_cols" not in names and "fold" in names
    tree = _tree("characters")
    assert not any(isinstance(n, ast.FunctionDef) and n.name == "orbit_classes" for n in ast.walk(tree))
    assert "fold" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_one_freudenthal_recursion():
    # finite weight systems are the depth-0 rows of the affine table, so the
    # package defines one Freudenthal step and no finite-only recursion
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert not any("_dominant_multiplicities" in text for text in sources)
    steps = [
        node
        for text in sources
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and node.name == "_freudenthal"
    ]
    assert len(steps) == 1


def test_cli_and_package_import_heavy_modules_lazily():
    # module-level imports of these would load them in every cold CLI process
    lazy = {"smatrix", "correlator", "characters", "embeddings", "picard", "acceptance"}
    for module in ("cli", "__init__"):
        for node in _tree(module).body:
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "mpmath" for a in node.names), module
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "mpmath", module
                if node.level > 0:
                    names = {node.module} if node.module else {a.name for a in node.names}
                    assert not names & lazy, (module, node.lineno)


def test_no_module_imports_dataclasses():
    # records are named tuples; dataclasses would load inspect, ast and dis in every cold process
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert offenders == []


def test_only_cli_main_prints():
    # one output path: each subcommand returns (doc, lines, passed) and main writes them
    tree = _tree("cli")
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    writes = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "print")
        or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"))
    ]
    assert writes and all(main.lineno <= line <= main.end_lineno for line in writes)


def test_correlator_engine_is_iterative():
    # a function that names itself can recurse past the interpreter's limit on a long word
    tree = _tree("correlator")
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert "_merge" not in defs
    for name in ("_push", "_normalize_word", "_gauge_step", "reduce_state"):
        names = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        assert name not in names, name


_MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem", "clear", "add", "__setitem__"}


def test_correlator_keys_are_canonical_words_and_no_memo_is_kept():
    # one bracket or push memo for a whole deep reduction grew to about 1 GB; the
    # only module-level cache is the symbol cache.  Terms that differ by a swap of
    # commuting modes merge under their canonical key, so no per-layer push or
    # bracket table is kept either
    tree = _tree("correlator")
    top = _defined_names("correlator")
    caches = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id in ("lru_cache", "cache") and isinstance(n.ctx, ast.Load)
    ]
    symbol = next(n for n in tree.body if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "_symbol")
    assert caches == [symbol.lineno]
    writes = []
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                writes.append(f"{fn.name}:{node.lineno}")
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                base = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                base = node.func.value
            else:
                continue
            if isinstance(base, ast.Name) and base.id in top:
                writes.append(f"{fn.name}:{node.lineno}")
    assert writes == []
    defs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    params = {a.arg for fn in defs.values() for a in fn.args.args + fn.args.kwonlyargs}
    assert params & {"brackets", "pushes"} == set()
    # every key reduce_state files, input terms and gauge-step results, passes through _canonical
    reduce = defs["reduce_state"]
    bound = {t.id: n.value for n in ast.walk(reduce) if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    keys = [n.args[1] for n in ast.walk(reduce) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_accumulate"]
    assert len(keys) == 2
    for key in keys:
        expr = bound.get(key.id, key) if isinstance(key, ast.Name) else key
        assert "_canonical" in {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}, ast.unparse(key)
    # the sort takes no bracket: it keeps the length of the word
    assert "apply_bracket" not in {n.id for n in ast.walk(defs["_canonical"]) if isinstance(n, ast.Name)}


def test_correlator_pairings_are_read_only():
    # fallback symbols come from one module-level cache and Ward coefficients
    # from one running product, so the env holds only what was declared
    tree = _tree("correlator")
    assert "_binom" not in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "math" not in imported
    env = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PairingEnv")
    writes = []
    for fn in env.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(node.ctx, ast.Load):
                base = node
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if isinstance(base, ast.Name) and base.id == "self":
                    writes.append(f"{fn.name}:{node.lineno}")
    assert writes == []


def test_root_datum_is_built_in_integers():
    # the Gram matrix comes from the Killing sum over the positive roots; the
    # Fraction inverse of the Cartan matrix lives only in the tests, as an oracle
    tree = _tree("lie")
    assert "Fraction" not in _names_used(tree, ["build_root_datum"])
    defs = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert defs & {"_invert", "_symmetrizer", "_integral"} == set()


def test_one_weight_check_and_one_smatrix_cap():
    # a weight is refused only by lie.check_weight, and the S-matrix only by its work cap
    calls = [
        (path.stem, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "is_dominant"
    ]
    check = next(n for n in _tree("lie").body if isinstance(n, ast.FunctionDef) and n.name == "check_weight")
    inside = [module == "lie" and check.lineno <= node.lineno <= check.end_lineno for module, node in calls]
    assert inside and all(inside)
    sources = "".join(path.read_text(encoding="utf-8") for path in SRC.glob("*.py"))
    assert "_check_same_algebra" not in sources and "FULL_PATH_WEYL_LIMIT" not in sources


def test_one_weyl_walker_serves_the_orbits_and_the_s_matrix():
    # lie.weyl_walk is the one walk of W: the counts keep no loop of their own,
    # and RootDatum.weyl_orbit is a fold and that walk
    tree = _tree("smatrix")
    assert not any(isinstance(n, ast.While) for n in ast.walk(tree))
    assert any(
        isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == "lie" and "weyl_walk" in {a.name for a in n.names}
        for n in ast.walk(tree)
    )
    root_datum = next(n for n in _tree("lie").body if isinstance(n, ast.ClassDef) and n.name == "RootDatum")
    orbit = next(n for n in root_datum.body if isinstance(n, ast.FunctionDef) and n.name == "weyl_orbit")
    assert "weyl_walk" in {n.func.id for n in ast.walk(orbit) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
