import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from coldspin import jsonio
from coldspin.errors import ValidationError
from coldspin.jsonio import (
    MAX_DEPTH, decode_nonfinite, encode_nonfinite, format_json, read_json,
)


def test_finite_documents_pass_through_unchanged():
    document = {"a": 1.5, "b": [1, "x", None], "c": {"d": True}}
    assert encode_nonfinite(document) == document
    assert decode_nonfinite(document) == document


def test_nonfinite_values_round_trip(tmp_path):
    document = {
        "up": math.inf,
        "list": [1.0, -math.inf, {"deep": math.nan}],
        "a/b~c": {"x": math.inf},
    }
    encoded = encode_nonfinite(document)
    assert encoded["up"] is None and encoded["list"][1] is None
    assert encoded["nonfinite"] == {
        "/up": "inf",
        "/list/1": "-inf",
        "/list/2/deep": "nan",
        "/a~1b~0c/x": "inf",
    }
    assert document["up"] == math.inf  # the input is not modified

    raw = format_json(document).decode()
    assert raw.endswith("\n")
    assert raw == json.dumps(encoded, indent=2, sort_keys=True, allow_nan=False) + "\n"
    decoded = decode_nonfinite(json.loads(raw))
    assert decoded["up"] == math.inf
    assert decoded["list"][:2] == [1.0, -math.inf]
    assert math.isnan(decoded["list"][2]["deep"])
    assert decoded["a/b~c"] == {"x": math.inf}
    assert "nonfinite" not in decoded


@pytest.mark.parametrize(
    "listed",
    [
        ["/a"],
        {"/a": "infinity"},
        {"/a": ["inf"]},
        {"a": "inf"},
        {"/missing": "inf"},
        {"/list/9": "inf"},
        {"/a": "inf", "/list/x": "inf"},
        {"/b": "inf"},
    ],
)
def test_malformed_nonfinite_listing_is_rejected(listed):
    document = {"a": None, "b": 2.0, "list": [None], "nonfinite": listed}
    with pytest.raises(ValidationError):
        decode_nonfinite(document)


@pytest.mark.parametrize("text", ["[1, 2]\n", "3\n", "null\n"])
def test_read_json_rejects_non_object_top_level(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="JSON object"):
        read_json(path)


def test_read_json_rejects_non_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ValidationError, match="cannot read"):
        read_json(path)


def nested_text(depth: int) -> str:
    """A JSON object whose key "x" holds arrays nested to depth levels in all."""
    return '{"x": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}\n"


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 500, 200_000])
def test_read_json_refuses_documents_nested_too_deep(tmp_path, depth):
    path = tmp_path / "doc.json"
    path.write_text(nested_text(depth))
    with pytest.raises(ValidationError, match=f"doc.json nests .* more than {MAX_DEPTH} levels"):
        read_json(path)


def test_read_json_takes_documents_nested_to_the_limit(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(nested_text(MAX_DEPTH))
    assert read_json(path) == json.loads(nested_text(MAX_DEPTH))


# str with non-ASCII and control characters and lone surrogates
TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)
SCALARS = (
    TEXT
    | st.integers()
    | st.integers(-(10**4300 - 1), 10**4300 - 1)  # up to Python's digit limit
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
    | st.booleans()
    | st.none()
)
DOCUMENTS = st.dictionaries(TEXT, st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=12,
))


def nested_document(depth: int) -> dict:
    """An object nested depth levels in all, through objects and arrays in
    turn."""
    document: object = []
    for level in range(depth - 2, 0, -1):
        document = {"k": document} if level % 2 else [document]
    return {"top": document}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
@example({})
@example({"a": [], "b": {}, "c": [[]], "d": ()})
@example(nested_document(MAX_DEPTH))
def test_json_layer_agrees_with_json(tmp_path_factory, document):
    raw = format_json(document)
    assert raw == (json.dumps(encode_nonfinite(document), indent=2, sort_keys=True,
                              allow_nan=False) + "\n").encode()
    assume(jsonio._depth(json.loads(raw)) <= MAX_DEPTH)
    path = tmp_path_factory.getbasetemp() / "agrees.json"
    path.write_bytes(raw)
    assert read_json(path) == json.loads(raw)


def test_json_layer_without_the_accelerator_is_json(tmp_path, monkeypatch):
    document = {"a": [1, -0.0, math.inf, "\u00e9\x01"], "b": {"c": None, "d": True}, "e": ()}
    raw = format_json(document)
    (tmp_path / "doc.json").write_bytes(raw)
    (tmp_path / "bad.json").write_text('{"a": 1,}')
    expected = read_json(tmp_path / "doc.json")
    with pytest.raises(ValidationError) as fast:
        read_json(tmp_path / "bad.json")
    monkeypatch.setattr(jsonio, "_scan", None)
    monkeypatch.setattr(jsonio, "_quote", None)
    assert format_json(document) == raw
    assert read_json(tmp_path / "doc.json") == expected
    with pytest.raises(ValidationError) as fallback:
        read_json(tmp_path / "bad.json")
    assert str(fallback.value) == str(fast.value)


def test_read_json_parses_json_constants_as_floats(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": NaN, "b": [Infinity, -Infinity]}')
    document = read_json(path)
    assert math.isnan(document["a"]) and document["b"] == [math.inf, -math.inf]


@pytest.mark.parametrize("value", [{1, 2}, 1j, b"x", object()])
def test_format_json_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as ours:
        format_json({"a": [value]})
    with pytest.raises(TypeError) as theirs:
        json.dumps({"a": [value]}, indent=2, sort_keys=True, allow_nan=False)
    assert str(ours.value) == str(theirs.value)


def test_format_json_writes_non_str_keys_as_json_does():
    document = {2: "b", 1: "a", 1.5: None}
    assert format_json({"k": document}).decode() == json.dumps(
        {"k": document}, indent=2, sort_keys=True, allow_nan=False) + "\n"


def digit_limit_text() -> str:
    try:
        int("1" * 5000)
    except ValueError as exc:
        return str(exc)
    pytest.skip("this Python has no integer digit limit")


# malformed files and the ValidationError text read_json gives for each,
# as it did on json (None: this Python's integer digit-limit text)
MALFORMED = {
    "bom": ("\ufeff{}\n",
            "doc.json is not valid JSON (line 1): Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "empty": ("", "doc.json is not valid JSON (line 1): Expecting value"),
    "trailing-data": ('{"a": 1}\n{"b": 2}\n', "doc.json is not valid JSON (line 2): Extra data"),
    "unterminated-string": ('{\n  "a": "abc',
                            "doc.json is not valid JSON (line 2): Unterminated string starting at"),
    "bad-escape": ('{\n  "a": "\\q"\n}\n', "doc.json is not valid JSON (line 2): Invalid \\escape"),
    "control-character": ('{"a": "x\ty"}\n',
                          "doc.json is not valid JSON (line 1): Invalid control character at"),
    "trailing-comma": ('{\n  "a": [1, 2],\n}\n', "doc.json is not valid JSON (line 3): "
                       "Expecting property name enclosed in double quotes"),
    "5000-digits": ('{"a": ' + "1" * 5000 + "}\n", None),
    "10000-deep": ('{"a": ' + "[" * 10000 + "]" * 10000 + "}\n",
                   f"doc.json nests objects and arrays more than {MAX_DEPTH} levels deep"),
}
# reads doc.json in a fresh interpreter, which has not loaded json, and
# prints the ValidationError's text
READ_IN_A_FRESH_INTERPRETER = """
from coldspin.errors import ValidationError
from coldspin.jsonio import read_json
try:
    read_json("doc.json")
except ValidationError as exc:
    print(exc)
"""


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_files_give_json_s_error_text(tmp_path, name):
    text, expected = MALFORMED[name]
    if expected is None:
        expected = f"doc.json is not valid JSON: {digit_limit_text()}"
    (tmp_path / "doc.json").write_bytes(text.encode("utf-8"))
    with pytest.raises(ValidationError) as in_process:
        read_json(tmp_path / "doc.json")
    assert str(in_process.value) == str(tmp_path / expected)
    # without json loaded, as a command runs: CPython 3.11's scanner raises
    # SystemError there on a fault of its own
    path = str(Path(jsonio.__file__).parents[1])
    result = subprocess.run([sys.executable, "-S", "-c", READ_IN_A_FRESH_INTERPRETER],
                            cwd=tmp_path, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == expected + "\n"
