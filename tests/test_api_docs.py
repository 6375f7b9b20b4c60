"""Every public name of the package documents itself."""

import dataclasses
import inspect

import pytest

import vilenkin

PUBLIC = [
    name for name in vilenkin.__all__
    if inspect.isfunction(getattr(vilenkin, name)) or inspect.isclass(getattr(vilenkin, name))
]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_its_own_docstring(name):
    obj = getattr(vilenkin, name)
    doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
    assert doc and doc.strip(), f"{name} has no docstring"
    if dataclasses.is_dataclass(obj):
        # dataclass writes the signature as the docstring of an undocumented class
        assert not doc.startswith(f"{name}("), f"{name} has only its generated signature"
