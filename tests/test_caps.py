"""The README's list of input caps names every cap constant of the package, with its value."""

import ast
import re
from importlib import import_module
from pathlib import Path

import wzw

SRC = Path(wzw.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
CAP = r"M(?:AX|IN)_\w+"


def _readme_caps():
    """{(module, constant): value text} for each `module.CONSTANT` (value) of the caps list."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Input caps") :]
    section = section[: section.index("\n#")]
    return {(m, c): v for m, c, v in re.findall(rf"`(\w+)\.({CAP})` \(([^)]*)\)", section)}


def _value(text):
    """'3,000,000' or '2^16' as an int."""
    base, _, power = text.replace(",", "").partition("^")
    return int(base) ** int(power or 1)


def _code_caps():
    """(module, constant) for every MAX_/MIN_ name assigned at the top level of a module."""
    return {
        (path.stem, n.id)
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        for n in ast.walk(target)
        if isinstance(n, ast.Name) and re.fullmatch(CAP, n.id)
    }


def test_readme_caps_have_the_values_of_the_code():
    listed = _readme_caps()
    assert listed
    for (module, name), text in listed.items():
        assert getattr(import_module("wzw." + module), name) == _value(text), f"{module}.{name}"


def test_readme_lists_every_cap_under_its_defining_module():
    assert set(_readme_caps()) == _code_caps()
