"""The POST body decoder against the reference ``json.loads`` path.

:func:`repro.serve.body.decode_body` decodes a canonical ``bits`` value
straight from the bytes.  Whatever the body, the server must answer it
as it did when every body went through ``json.loads`` and the bit
checks: the same payload and bit matrix, or the same status, error code
and message.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.body import decode_body
from repro.serve.server import ApiError, EstimationServer, _Request
from repro.serve.sessions import bit_matrix


def _reference_json(body):
    """The former ``_Request.json``: ``json.loads`` and an object check."""
    if not body:
        raise ApiError(400, "bad_request", "request body required")
    try:
        payload = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        raise ApiError(400, "bad_request", "body is not valid JSON")
    if not isinstance(payload, dict):
        raise ApiError(400, "bad_request", "body must be a JSON object")
    return payload


def _decoded(body):
    return _Request("POST", "/v1/estimate/bits", {}, body).json()


def _outcome(decode, body, width):
    """What the server makes of ``body`` for a model ``width`` bits wide:
    the payload without ``bits``, then what the ``bits`` checks of the
    estimate route, the append route and the session give."""
    try:
        payload = decode(body)
    except ApiError as error:
        return ("error", error.status, error.code, error.message)
    rest = {key: value for key, value in payload.items() if key != "bits"}
    result = [json.dumps(rest, sort_keys=True)]
    checks = (
        lambda: EstimationServer._parse_bits(payload, width),
        lambda: bit_matrix(EstimationServer._parse_segment(payload), width),
    )
    for check in checks:
        try:
            matrix = check()
        except ApiError as error:
            result.append(("error", error.status, error.code, error.message))
        except ValueError as error:
            result.append(("invalid", str(error)))
        else:
            result.append((matrix.dtype.str, matrix.shape, matrix.tobytes()))
    return result


def _assert_same(body, width):
    assert _outcome(_decoded, body, width) == _outcome(
        _reference_json, body, width
    ), body


#: Entries that are not a single 0/1 digit (some not JSON at all).
_ODD_ENTRIES = ("true", "false", "1.0", "0.0", "-0", "2", "01", "null",
                '"1"', "[1]", "1e0", "-1", "NaN")
_JSON_SPACE = ["", "", "", " ", "  ", "\n", "\t", "\r\n "]
#: Between members, now and then a space that JSON does not allow.
_GAP = st.sampled_from(_JSON_SPACE + ["\x0b", "\xa0"])
_BYTES = [bytes([b]) for b in b'012 ,[]"{}x-.\n'] + [b"\xff", b"\x00"]


@st.composite
def _bits_value(draw):
    """JSON text of a bits value (canonical, or canonical but for an odd
    entry, a digit other than 0/1, or a short or long row here and
    there), its width and whether it is canonical."""
    n = draw(st.integers(0, 5))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from("01"), min_size=width,
                                   max_size=width),
                         min_size=n, max_size=n))
    canonical = n > 0
    for row in rows:
        flaw = draw(st.sampled_from(
            ["none"] * 6 + ["odd", "digit", "short", "long"]
        ))
        if flaw in ("odd", "digit"):
            # A digit other than 0/1 is the likeliest to pass as a bit.
            row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(
                _ODD_ENTRIES if flaw == "odd" else "23456789"
            ))
        elif flaw == "short":
            del row[draw(st.integers(0, width - 1)):]
        elif flaw == "long":
            row.append(draw(st.sampled_from("01")))
        canonical = canonical and flaw == "none"
    spaces = itertools.cycle(draw(st.lists(
        st.sampled_from(_JSON_SPACE), min_size=1, max_size=8
    )))

    def array(items):
        return "[" + next(spaces) + ("," + next(spaces)).join(
            item + next(spaces) for item in items) + "]"

    return array(array(row) for row in rows), width, canonical


_EXTRAS = st.sampled_from([
    ("module", {"kind": "ripple_adder", "width": 2}),
    ("per_cycle", True), ("mode", "auto"), ("words", [[1, 2], [3, 4]]),
    ("x", [[0, 1], [1, 0]]), ("note", "é \"bits\" }]"), ("vdd", 1.5),
])


@st.composite
def _body(draw):
    value, width, canonical = draw(_bits_value())
    members = [("bits", value)]
    members += [(key, json.dumps(extra)) for key, extra in
                draw(st.lists(_EXTRAS, max_size=3))]
    if draw(st.integers(0, 5)) == 0:  # a repeated key: the last one wins
        value, width, _ = draw(_bits_value())
        members.append(("bits", value))
        canonical = False
    members = draw(st.permutations(members))
    gap = draw(_GAP)
    canonical = canonical and gap in _JSON_SPACE
    text = "{" + gap + ",".join(
        f'{gap}"{key}"{gap}:{gap}{value}{gap}' for key, value in members
    ) + "}" + gap
    encoding = draw(st.sampled_from(
        ["utf-8"] * 4 + ["utf-8-sig", "utf-16", "utf-16-be", "utf-32-le"]
    ))
    body = text.encode(encoding)
    mutation = draw(st.sampled_from(["none"] * 3 + ["byte", "cut"]))
    if body and mutation == "byte":
        at = draw(st.integers(0, len(body) - 1))
        body = body[:at] + draw(st.sampled_from(_BYTES)) + body[at + 1:]
    elif mutation == "cut":
        body = body[:draw(st.integers(0, len(body)))]
    return body, width, canonical and mutation == "none"


@settings(max_examples=600, deadline=None)
@given(_body(), st.integers(1, 5))
def test_decoder_matches_json_loads(case, other_width):
    """Random bodies, checked against a model as wide as the last
    ``bits`` value and against one of another width."""
    body, width, canonical = case
    _assert_same(body, width)
    _assert_same(body, other_width)
    if canonical and json.loads(body)["bits"]:
        # The canonical value took the byte path, not the scanner.
        assert isinstance(_decoded(body)["bits"], np.ndarray)


@pytest.mark.parametrize("value", [
    "true", "1.0", "-0", "[[],[]]", "[[0,1],[1]]", "[[0,1],[1,0,1]]",
    "[[0,2],[1,0]]", "[[0,1],[1,0]] ", "[[1],[0]]", "[]", "[[]]",
    "[[[0]],[[1]]]", "[[0 ,1] , [1,\n0]]", "[[0,1],[1,0],]", "[[0,1][1,0]]",
    "[[0,1],[1,0]]]", "[[0,1],,[1,0]]", "[[0,1],[1.0,0]]", "[[-0,1],[1,0]]",
])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_bits_edge_values(value, width):
    for text in (f'{{"bits": {value}}}', f'{{"bits": {value}, "a": 1}}',
                 f'{{"a": [], "bits": {value}}}'):
        _assert_same(text.encode(), width)
        _assert_same(text.encode("utf-16"), width)


def test_canonical_bits_decode_to_a_bool_matrix():
    rng = np.random.default_rng(0)
    matrix = rng.integers(0, 2, size=(300, 7))
    for separators in ((", ", ": "), (",", ":")):
        body = json.dumps({"bits": matrix.tolist(), "per_cycle": True},
                          separators=separators).encode()
        payload = decode_body(body)
        assert payload["per_cycle"] is True
        assert payload["bits"].dtype == bool
        np.testing.assert_array_equal(payload["bits"], matrix)
        assert bit_matrix(payload["bits"], 7) is payload["bits"]


@pytest.mark.parametrize("body", [
    b"[" * 100_000, b'{"bits": ' + b"[" * 100_000, b'{"a": ' * 100_000,
])
def test_deeply_nested_body_is_a_400(body):
    """The scanner runs out of stack on deep nesting; that is a
    malformed body, not a server error."""
    with pytest.raises(ApiError) as caught:
        _decoded(body)
    assert (caught.value.status, caught.value.code) == (400, "bad_request")
