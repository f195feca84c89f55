import json
import math

import pytest

from coldspin.errors import ValidationError
from coldspin.jsonio import (
    MAX_DEPTH, decode_nonfinite, encode_nonfinite, read_json, write_json,
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

    write_json(tmp_path / "doc.json", document)
    raw = (tmp_path / "doc.json").read_text()
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
