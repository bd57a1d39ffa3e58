"""canonical_json against its oracle, json.dumps(sort_keys=True, indent=2)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnlift.cli import main
from dsnlift.gaussian import verify_genie_bounds
from dsnlift.network import load_network
from dsnlift.pipeline import _VECTORS_MARK, _bound_doc, canonical_json, read_input_text
from dsnlift.typicality import ReceptionVectors


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


_coordinates = st.integers(-3, 3) | st.floats(-2, 2, allow_nan=False)
_pairs = st.tuples(_coordinates, _coordinates)
# An interleaved slot's values are bare (re, im) pairs; a block slot's
# are tuples of pairs, one per symbol of the base block.
_alphabets = st.sets(_pairs, min_size=1, max_size=5) | st.integers(1, 3).flatmap(
    lambda n: st.sets(st.tuples(*[_pairs] * n), min_size=1, max_size=5)
)


@st.composite
def _vector_sets(draw):
    alphabet = tuple(sorted(draw(_alphabets)))
    width = draw(st.integers(0, 3))
    digit = st.integers(0, len(alphabet) - 1)
    # Lexicographic order of digit rows is their code order.
    rows = sorted(draw(st.sets(st.tuples(*[digit] * width), max_size=8)))
    return ReceptionVectors(alphabet, np.asarray(rows, dtype=np.int64).reshape(len(rows), width))


def _listed(doc):
    # The document the writer read before vectors were written straight
    # from their digit rows: each set as a list of tuples.
    if isinstance(doc, ReceptionVectors):
        return list(doc)
    if isinstance(doc, dict):
        return {key: _listed(item) for key, item in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(_listed(item) for item in doc)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=st.recursive(_leaves | _vector_sets(), _containers, max_leaves=12))
def test_reception_vectors_write_as_their_lists(doc):
    assert canonical_json(doc) == _oracle(_listed(doc))


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
    assert out.read_text() == _oracle(_bound_doc(rep))


def _small_set():
    return ReceptionVectors(((0, 1), (2, 3)), np.array([[0, 1], [1, 0]], dtype=np.int64))


_MARKS = [_VECTORS_MARK.format(i) for i in range(3)]


@pytest.mark.parametrize(
    "strings",
    [
        {"value": _MARKS[0]},
        {_MARKS[0]: "key"},
        {"tail": 'x"' + _MARKS[0]},
        {"all": [_MARKS[0], {_MARKS[1]: 'x"' + _MARKS[2]}]},
    ],
    ids=["value", "key", "string-tail", "three-marks"],
)
def test_document_strings_that_hold_the_placeholder(strings):
    # The quoted placeholder shows up in the document's own text; the
    # writer must notice and move on to the next placeholder.
    doc = {**strings, "vectors": _small_set(), "z": [_small_set()]}
    assert canonical_json(doc) == _oracle(_listed(doc))


def test_one_vector_set_at_two_depths():
    shared = _small_set()
    doc = {"a": shared, "b": [[shared, {"c": shared}]]}
    assert canonical_json(doc) == _oracle(_listed(doc))


class _HashableSet(ReceptionVectors):
    # ReceptionVectors compares by value and is unhashable; this one can be a key.
    __hash__ = object.__hash__


def test_vector_set_as_a_key_raises_type_error():
    small = _small_set()
    doc = {_HashableSet(small.alphabet, small.digits): 1}
    with pytest.raises(TypeError):
        _oracle(doc)
    with pytest.raises(TypeError):
        canonical_json(doc)
