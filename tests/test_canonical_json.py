"""canonical_json against its oracle, json.dumps(sort_keys=True, indent=2)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnlift.cli import main
from dsnlift.gaussian import verify_genie_bounds
from dsnlift.network import load_network
from dsnlift.pipeline import _bound_doc, canonical_json, read_input_text


def _oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_strings = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé €\U0001f600')
_floats = st.floats(allow_nan=True, allow_infinity=True)
_leaves = (
    st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | _floats
    | _floats.map(np.float64)
    | st.booleans()
    | st.none()
    | _strings
)
# Keys of one dict must be mutually orderable, as sort_keys requires.
_number_keys = st.integers() | st.floats(allow_nan=False) | st.booleans()


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_strings, children, max_size=4)
        | st.dictionaries(_number_keys, children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
    )


_documents = st.recursive(_leaves, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(doc=_documents)
def test_matches_json_dumps(doc):
    assert canonical_json(doc) == _oracle(doc)


def test_equal_but_distinct_scalars_in_tuples():
    # (1,) == (True,) == (1.0,) and (0.0,) == (-0.0,); each keeps its text.
    doc = [(1,), (True,), (1.0,), (0.0,), (-0.0,)]
    assert canonical_json(doc) == _oracle(doc)
    assert "true" in canonical_json(doc) and "-0.0" in canonical_json(doc)


def test_one_tuple_at_two_depths():
    shared = (1, (2, "x"))
    doc = {"a": shared, "b": [[shared]], "c": [shared, shared]}
    assert canonical_json(doc) == _oracle(doc)


@pytest.mark.parametrize("doc", [[], {}, (), {"a": [], "b": {}, "c": (), "d": [[], {}, ()]}])
def test_empty_containers(doc):
    assert canonical_json(doc) == _oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [{"a": 1, 2: 3}, [np.int64(1)], {np.int64(1): 2}, {(1, 2): 3}, {1, 2}, {"s": {1, 2}}],
    ids=["mixed-keys", "np-int64", "np-int64-key", "tuple-key", "set", "nested-set"],
)
def test_type_errors_follow_json_dumps(doc):
    with pytest.raises(TypeError):
        _oracle(doc)
    with pytest.raises(TypeError):
        canonical_json(doc)


def test_bounds_out_writes_the_oracle_bytes(tmp_path):
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--network", "line", "--samples", "2000", "--seed", "4",
                 "--out", str(out)]) == 0
    rep = verify_genie_bounds(load_network(read_input_text("line")), samples=2000, seed=4)
    doc = _bound_doc(rep, digest="")
    doc.pop("config_hash")
    assert out.read_text() == _oracle(doc)
