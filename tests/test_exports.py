from pathlib import Path

import pytest

import mobal.maxatsp
import mobal.maxsat

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [mobal.maxatsp, mobal.maxsat], ids=lambda m: m.__name__)
def test_every_export_resolves_and_readme_names_it(module):
    # a stale name in __all__ breaks only `from module import *`
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    readme = README.read_text(encoding="utf-8")
    assert [name for name in module.__all__ if f"`{name}`" not in readme] == []
