"""Every public name of the package documents itself and has a use."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import vilenkin

PUBLIC = [
    name for name in vilenkin.__all__
    if inspect.isfunction(getattr(vilenkin, name)) or inspect.isclass(getattr(vilenkin, name))
]

# Public names that no engine path reads: independent routes the tests check
# the engine against.  Each says so in its docstring.
ORACLES = {
    "rademacher",
    "vilenkin_char",
    "fejer_mean",
    "variation_profile",
    "verify_decomposition_norm",
}


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_its_own_docstring(name):
    obj = getattr(vilenkin, name)
    doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
    assert doc and doc.strip(), f"{name} has no docstring"
    if dataclasses.is_dataclass(obj):
        # dataclass writes the signature as the docstring of an undocumented class
        assert not doc.startswith(f"{name}("), f"{name} has only its generated signature"


def _referenced_names(package: Path) -> set[str]:
    """Every Name and Attribute in the package's modules other than __init__.py."""
    seen = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_public_name_is_used_or_an_oracle():
    used = _referenced_names(Path(vilenkin.__file__).parent)
    unused = sorted(set(PUBLIC) - used - ORACLES)
    assert not unused, f"public names no module of the package reads: {unused}"


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_says_so(name):
    assert name in PUBLIC, f"{name} is listed as an oracle but is not public"
    assert "oracle" in getattr(vilenkin, name).__doc__, f"{name} does not call itself an oracle"
