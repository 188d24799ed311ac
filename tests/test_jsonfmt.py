"""The bulk indented-JSON writer equals ``json.dumps(indent=N)`` byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jsonfmt import dumps

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-310, 1e300]),
    st.text(),
    st.sampled_from(["é", "☃ snow", "\U0001f600", "tab\tquote\"", "\x00"]),
)

#: numpy float64 is a float subclass; both encoders print it as a float.
_list_items = st.one_of(_scalars, st.floats().map(np.float64))

_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(st.one_of(children, _list_items), max_size=6),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=40,
)


class TestMatchesJsonDumps:
    @settings(max_examples=300, deadline=None)
    @given(doc=_documents, indent=st.sampled_from([1, 2]),
           sort_keys=st.booleans())
    def test_nested_documents(self, doc, indent, sort_keys):
        assert dumps(doc, indent=indent, sort_keys=sort_keys) == \
            json.dumps(doc, indent=indent, sort_keys=sort_keys)

    @pytest.mark.parametrize("doc", [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [1]], (1, (2,)),
        [np.float64(0.1), np.float64(math.nan)], [1.0] * 3, 10 ** 100,
        {"m": [[0.5, 1.25], [2.0, -3.5]], "n": {"k": [True, None, "x"]}},
    ])
    @pytest.mark.parametrize("indent", [0, 1, 2, 4])
    def test_edge_documents(self, doc, indent):
        for sort_keys in (False, True):
            assert dumps(doc, indent=indent, sort_keys=sort_keys) == \
                json.dumps(doc, indent=indent, sort_keys=sort_keys)

    def test_non_string_keys_convert_like_json(self):
        doc = {1: "int", 2.5: "float", True: "bool", None: "none",
               math.inf: "inf", "s": {3: [4]}}
        assert dumps(doc, indent=2) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        [object()], {"k": {1, 2}}, {(1, 2): 3}, np.float32(1.0),
        [1, [np.int64(2)]],
    ])
    def test_unserializable_raises_the_same_error(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=1)
        with pytest.raises(TypeError) as got:
            dumps(doc, indent=1)
        assert str(got.value) == str(expected.value)
