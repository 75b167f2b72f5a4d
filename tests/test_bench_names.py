"""The traced benchmark (``perfbench/spans.py``) wraps package functions by
module attribute, so renaming or deleting one of them would break it.
Every name in its SPANNED and COUNTED tables must resolve in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(module, attr) for table in (mod.SPANNED, mod.COUNTED)
            for module, attrs in table.items() for attr in attrs]


@pytest.mark.parametrize("module, attr", _tables(), ids="{0[0]}.{0[1]}".format)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"delzant.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
