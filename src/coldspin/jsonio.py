"""Strict JSON documents with non-finite floats.

JSON has no literal for infinity or NaN, yet a fit can report an undefined
(infinite) uncertainty and a configuration may hold tau_s = inf.  Written
documents replace each non-finite float by null and record it under one
top-level "nonfinite" object, which maps the value's JSON Pointer
(RFC 6901, e.g. "/sigmas/sigma0_m") to "inf", "-inf" or "nan".
decode_nonfinite restores the values, so documents round-trip exactly.
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Mapping

from .errors import ValidationError

NONFINITE_KEY = "nonfinite"
_VALUES = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}

# Most levels of nested objects and arrays a document read_json returns may
# hold.  No valid coldspin document holds more than 4 (a manifest's
# config.atom_constants.trap); a deeper one is refused before a recursive
# copy, merge or check of it can exhaust the interpreter's stack.
MAX_DEPTH = 32


def _name(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _escape(key) -> str:
    return str(key).replace("~", "~0").replace("/", "~1")


def _unescape(token: str) -> str:
    return token.replace("~1", "/").replace("~0", "~")


def encode_nonfinite(document: Mapping) -> dict:
    """Copy of document with every non-finite float replaced by None and
    listed under "nonfinite"; documents without one are returned equal."""
    found: dict[str, str] = {}

    def walk(value, pointer: str):
        if isinstance(value, float) and not math.isfinite(value):
            found[pointer] = _name(value)
            return None
        if isinstance(value, Mapping):
            return {k: walk(v, f"{pointer}/{_escape(k)}") for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v, f"{pointer}/{i}") for i, v in enumerate(value)]
        return value

    encoded = walk(document, "")
    if found:
        encoded[NONFINITE_KEY] = found
    return encoded


def decode_nonfinite(document: Mapping) -> Mapping:
    """Inverse of encode_nonfinite: a copy of document with the values
    listed under "nonfinite" put back and that key removed."""
    if NONFINITE_KEY not in document:
        return document
    decoded = copy.deepcopy(dict(document))
    listed = decoded.pop(NONFINITE_KEY)
    if not isinstance(listed, dict):
        raise ValidationError(f"{NONFINITE_KEY!r} must be an object")
    for pointer, name in listed.items():
        if not (isinstance(name, str) and name in _VALUES and pointer.startswith("/")):
            raise ValidationError(f"bad {NONFINITE_KEY!r} entry {pointer!r}: {name!r}")
        *parents, last = [_unescape(token) for token in pointer[1:].split("/")]
        node = decoded
        try:
            for token in parents:
                node = node[int(token) if isinstance(node, list) else token]
            index = int(last) if isinstance(node, list) else last
            current = node[index]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValidationError(f"{NONFINITE_KEY!r} entry {pointer!r} names no value") from exc
        if current is not None:
            raise ValidationError(f"{pointer} is listed as {name} but holds {current!r}")
        node[index] = _VALUES[name]
    return decoded


def _depth(document) -> int:
    """Levels of nested objects and arrays in document, counted level by
    level without recursion."""
    depth, level = 0, [document]
    while level:
        depth += 1
        level = [child for node in level
                 for child in (node.values() if isinstance(node, dict) else node)
                 if isinstance(child, (dict, list))]
    return depth


def read_json(path) -> dict:
    """Parse a JSON file that must hold an object at top level; unreadable
    or non-UTF-8, malformed (reported with its line), non-object files and
    files nested more than MAX_DEPTH levels deep raise ValidationError."""
    too_deep = f"{path} nests objects and arrays more than {MAX_DEPTH} levels deep"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path} is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:  # nested deeper than the parser's stack allows
        raise ValidationError(too_deep) from None
    if not isinstance(document, dict):
        raise ValidationError(f"{path} must hold a JSON object at top level")
    if _depth(document) > MAX_DEPTH:
        raise ValidationError(too_deep)
    return document


def write_json(path, document: Mapping) -> None:
    """Write document as strict, indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(encode_nonfinite(document), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
