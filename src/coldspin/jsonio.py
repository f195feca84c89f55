"""Strict JSON documents with non-finite floats.

JSON has no literal for infinity or NaN, yet a fit can report an undefined
(infinite) uncertainty and a configuration may hold tau_s = inf.  Written
documents replace each non-finite float by null and record it under one
top-level "nonfinite" object, which maps the value's JSON Pointer
(RFC 6901, e.g. "/sigmas/sigma0_m") to "inf", "-inf" or "nan".
decode_nonfinite restores the values, so documents round-trip exactly.
format_json returns a document's bytes and opens no file: the CLI
digests and writes them.

Both run on CPython's _json accelerator rather than the json package,
whose decoder and encoder compile regular expressions at import and so
load re and enum on every run.  read_json parses with _json's scanner,
configured as json.loads configures it; format_json writes with a small
indented, key-sorted writer on _json's string encoder.  Whatever either
does not take (a malformed document, a value or key type outside JSON's
own) goes to json, so the bytes and every error text are json's.  A
build without _json uses json throughout.
"""

from __future__ import annotations

import math

from .errors import ValidationError

try:
    from _json import encode_basestring_ascii as _quote, make_scanner as _make_scanner
except ImportError:
    _quote = _make_scanner = None

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


def encode_nonfinite(document: dict) -> dict:
    """Copy of document with every non-finite float replaced by None and
    listed under "nonfinite"; documents without one are returned equal."""
    found: dict[str, str] = {}

    def walk(value, pointer: str):
        if isinstance(value, float) and not math.isfinite(value):
            found[pointer] = _name(value)
            return None
        if isinstance(value, dict):
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
    import copy  # only a document with non-finite values pays its import
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


class _Decoding:
    """What json.loads's default decoder hands _json's scanner: strict
    strings, plain floats and ints, no hooks, and NaN and the infinities
    as floats, so that a config check can name the key holding one."""
    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}.__getitem__


_scan = None if _make_scanner is None else _make_scanner(_Decoding)
_SPACE = " \t\n\r"  # the whitespace JSON allows between tokens


def _loads(text: str):
    """json.loads(text), without importing json unless text is malformed."""
    if _scan is not None and not text.startswith("\ufeff"):
        try:
            document, end = _scan(text, len(text) - len(text.lstrip(_SPACE)))
        except (StopIteration, ValueError, SystemError):
            # malformed (or an integer past the digit limit).  CPython
            # 3.11's scanner raises its JSONDecodeError only when
            # json.decoder is loaded, and a SystemError before.
            pass
        else:
            if not text[end:].strip(_SPACE):
                return document
    import json  # names the fault, and its line, as it always has
    return json.loads(text)


def read_json(path) -> dict:
    """Parse a JSON file that must hold an object at top level; unreadable
    or non-UTF-8, malformed (reported with its line), non-object files and
    files nested more than MAX_DEPTH levels deep raise ValidationError."""
    too_deep = f"{path} nests objects and arrays more than {MAX_DEPTH} levels deep"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        document = _loads(text)
    except ValueError as exc:
        if not hasattr(exc, "lineno"):  # an integer past Python's digit limit
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
        raise ValidationError(  # a json.JSONDecodeError
            f"{path} is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from exc
    except RecursionError:  # nested deeper than the parser's stack allows
        raise ValidationError(too_deep) from None
    if not isinstance(document, dict):
        raise ValidationError(f"{path} must hold a JSON object at top level")
    if _depth(document) > MAX_DEPTH:
        raise ValidationError(too_deep)
    return document


def _dumps(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) at indent, for str keys
    and JSON's own value types; TypeError for anything else."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_dumps(item, inner) for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quote refuses a key that is not a str
        items = [f"{_quote(key)}: {_dumps(item, inner)}" for key, item in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def format_json(document: dict) -> bytes:
    """The bytes of document as strict, indented, key-sorted JSON: those
    json.dumps(indent=2, sort_keys=True, allow_nan=False) writes."""
    document = encode_nonfinite(document)
    if _quote is not None:
        try:
            return (_dumps(document) + "\n").encode()
        except TypeError:  # a key or a value that json converts, or refuses
            pass
    import json
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode()
