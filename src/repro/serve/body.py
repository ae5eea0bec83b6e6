"""Request-body decoding shared by every POST route.

A body is a JSON object.  :func:`decode_body` returns it exactly as
``json.loads(body)`` would (same text decoding, UTF-16/32 detection
included, the last value winning for a repeated key) with one
difference: a top-level ``bits`` value in canonical form comes back as
the ``[n, w]`` bool matrix, decoded straight from the bytes by numpy
instead of through one Python list per row.  Canonical means an array of
equal-length, non-empty arrays of single ``0``/``1`` digits, with any
JSON whitespace between tokens; that is what every client in the
repository sends.  Every other ``bits`` value (``true``, ``1.0``,
ragged, empty, nested, ...) goes through the stdlib scanner like the
rest of the body, so the caller's ``bit_matrix`` sees the same value
``json.loads`` gives and answers it the same way.

Only the top-level object is walked here, with the stdlib scanner
(``json.decoder.scanstring`` for keys, ``JSONDecoder.scan_once`` for
values); a body that is not an object is handed to the stdlib decoder
whole.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE, scanstring
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = ["BodyError", "decode_body"]

_DECODER = json.JSONDecoder()
_SCAN = _DECODER.scan_once
_SKIP = WHITESPACE.match
#: JSON's insignificant whitespace, as ``bytes.translate`` deletes it.
_JSON_SPACE = b" \t\n\r"
_ONE = ord("1")


class BodyError(ValueError):
    """A body that is empty, not JSON, or not a JSON object (HTTP 400)."""


def decode_body(body: bytes) -> Dict[str, Any]:
    """The JSON object in ``body``, a canonical top-level ``bits`` value
    as a bool matrix; :class:`BodyError` when there is no such object."""
    if not body:
        raise BodyError("request body required")
    try:
        text = body.decode(json.detect_encoding(body), "surrogatepass")
        payload = _document(text)
    except (ValueError, RecursionError):
        # ValueError covers JSONDecodeError and UnicodeDecodeError; the
        # stdlib scanner recurses per nesting level, so a deeply nested
        # body (well inside MAX_BODY_BYTES) exhausts the stack instead.
        raise BodyError("body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise BodyError("body must be a JSON object")
    return payload


def _document(text: str) -> Any:
    index = _SKIP(text, 0).end()
    if not text.startswith("{", index):
        return _DECODER.decode(text)
    payload, index = _object(text, index + 1)
    if _SKIP(text, index).end() != len(text):
        raise ValueError("extra data after the object")
    return payload


def _object(text: str, index: int) -> Tuple[Dict[str, Any], int]:
    """Members of the object whose ``{`` precedes ``index``; returns the
    object and the index past its ``}`` (the grammar of the stdlib's
    ``JSONObject``)."""
    payload: Dict[str, Any] = {}
    index = _SKIP(text, index).end()
    if text.startswith("}", index):
        return payload, index + 1
    while True:
        if not text.startswith('"', index):
            raise ValueError("expected a property name")
        key, index = scanstring(text, index + 1)
        index = _SKIP(text, index).end()
        if not text.startswith(":", index):
            raise ValueError("expected ':'")
        index = _SKIP(text, index + 1).end()
        decoded = _bit_rows(text, index) if key == "bits" else None
        if decoded is None:
            try:
                decoded = _SCAN(text, index)
            except StopIteration:
                raise ValueError("expected a value") from None
        payload[key], index = decoded
        index = _SKIP(text, index).end()
        if text.startswith("}", index):
            return payload, index + 1
        if not text.startswith(",", index):
            raise ValueError("expected ',' or '}'")
        index = _SKIP(text, index + 1).end()


def _bit_rows(text: str, start: int) -> Optional[Tuple[np.ndarray, int]]:
    """The canonical bit matrix starting at ``start`` and the index past
    its closing ``]``, or ``None`` when the value there is not one.

    A canonical value holds no ``"`` or ``}``, so it ends at the last
    ``]`` before the first of them.  With the whitespace dropped and the
    outer brackets replaced by a trailing ``,``, it is ``n`` rows of
    ``[d,d,...,d],``, each ``2w + 2`` bytes: one compare against that
    row template (digits masked to ``1``) checks the whole structure.
    """
    if not text.startswith("[", start):
        return None
    stop = len(text)
    for mark in '"}':
        found = text.find(mark, start, stop)
        if found >= 0:
            stop = found
    close = text.rfind("]", start, stop)
    if close < 0:
        return None
    try:
        compact = text[start:close + 1].encode("ascii").translate(
            None, _JSON_SPACE
        )
    except UnicodeEncodeError:
        return None
    row_bytes = compact.find(b"]")  # 2w + 1 for the first row
    width, odd = divmod(row_bytes - 1, 2)
    row_bytes += 1
    if width < 1 or odd or (len(compact) - 1) % row_bytes:
        return None
    rows = np.frombuffer(compact[1:-1] + b",", dtype=np.uint8).reshape(
        -1, row_bytes
    )
    template = np.frombuffer(b"[" + b"1," * (width - 1) + b"1],", np.uint8)
    digits = np.frombuffer(b"\0" + b"\1\0" * width + b"\0", np.uint8)
    if not ((rows | digits) == template).all():
        return None
    return rows[:, 1:-2:2] == _ONE, close + 1
