"""README.md names private constants and helpers as `module._name` (the
constants table, the one-body-per-sum table, the numerical conventions):
each such name must still be an attribute of that rphardy module, so a row
left behind by a change that removes the name fails here."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "rphardy"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _named():
    """Each distinct (module, name) in a backticked span of README.md (spans
    are read line by line, so a stray backtick misaligns one line only)."""
    text = README.read_text(encoding="utf-8")
    pattern = re.compile(r"\b(%s)\.(_\w+)" % "|".join(MODULES))
    return sorted({m.groups() for span in re.findall(r"`([^`\n]+)`", text)
                   for m in pattern.finditer(span)})


NAMED = _named()


def test_the_readme_names_private_attributes():
    assert len(NAMED) >= 20


@pytest.mark.parametrize("module,name", NAMED, ids=[".".join(n) for n in NAMED])
def test_a_private_name_in_the_readme_is_an_attribute_of_its_module(module, name):
    assert hasattr(importlib.import_module("rphardy." + module), name)
