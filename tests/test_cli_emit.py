"""The CLI's JSON writer against the standard library's encoder: ``_emit``
must print exactly ``json.dumps(x, indent=2, sort_keys=True)`` and a
newline for every JSON-like value without floats."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from delzant import cli

# Quotes, backslashes, control characters, DEL and non-ASCII (including
# characters outside the basic plane, written as surrogate pairs).
AWKWARD = st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\x80é€ 😀')
TEXT = st.text(st.one_of(AWKWARD, st.characters()), max_size=8)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(-10**80, 10**80),
    st.sampled_from([True, False, None, 0, -1, 2**64, -(2**64)]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


def emitted(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example([])
@example({})
@example({"a": {"b": {"c": {"d": []}}}})
@example([[[[{}]]]])
# more members at the second level than one batch of pieces holds
@example({"edges": [{"u": i, "weight": [i, -i]} for i in range(10000)]})
def test_emit_matches_json_dumps(payload):
    assert emitted(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    1.5,
    {"a": 0.0},
    [1, [2, [3, float("nan")]]],
    {1: "a"},
    {"a": [{"b": {2: 3}}]},
    {"a": 1, 2: "b"},
    [object()],
    {"a": {1, 2}},
])
def test_emit_refuses_floats_other_types_and_non_str_keys(payload):
    with pytest.raises(TypeError):
        emitted(payload)
