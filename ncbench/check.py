"""Checks of program outputs against the oracle values the generator stored.

``check_cli(op, code, stdout, stderr)`` returns None for a correct op and a
one-line reason otherwise.  Values are compared after parsing both sides, so
a check never depends on the program's text formatting beyond its schema.
"""

from __future__ import annotations

import json

from . import oracles as O


def _sequence(payload, key, expected):
    got = [O.parse(v) for v in payload[key]]
    want = [O.parse(v) for v in expected]
    if got != want:
        return f"{key} differ: got {payload[key]}"
    return None


def _word_moments(payload, expected):
    got = payload["moments"]
    if sorted(got) != sorted(expected) or any(
            O.parse(got[w]) != O.parse(v) for w, v in expected.items()):
        return f"moments differ: got {got}"
    return None


def _nc(payload, n):
    parts = payload["partitions"]
    want = O.catalan(n)
    if payload["n"] != n or payload["count"] != want or len(parts) != want:
        return f"NC({n}) has {want} partitions, got count {payload['count']}"
    if len(set(parts)) != want:
        return "repeated partitions"
    for text in parts:
        blocks = O.parse_blocks(text)
        if not (O.is_partition_of(blocks, n) and O.is_noncrossing(blocks)):
            return f"{text} is not in NC({n})"
    return None


def _freeness(payload, moments_count, cumulants_count):
    reports = payload["reports"]
    if [r["mode"] for r in reports] != ["moments", "cumulants"]:
        return "expected a moments and a cumulants report"
    for report, count in zip(reports, (moments_count, cumulants_count)):
        if report["checked_words"] != count:
            return f"{report['mode']}: checked {report['checked_words']} words, expected {count}"
        if report["violations"]:
            return f"{report['mode']}: violations on a free product"
    return None


def _positivity(payload, size, psd):
    result = payload["positivity"]
    if len(result["basis"]) != size:
        return f"basis has {len(result['basis'])} words, expected {size}"
    if result["psd"] is not psd:
        return f"psd is {result['psd']}, expected {psd}"
    if psd:
        pivots = [O.parse(p) for p in result["pivots"]]
        if len(pivots) != size or any(p[1] or p[0] < 0 for p in pivots):
            return "pivots of a PSD Gram must be non-negative, one per basis word"
        if result["witness"] is not None or result["schur_consistent"] is not True:
            return "positive state reported a witness or a Schur mismatch"
        return None
    witness = result["witness"]
    if not witness or len(witness) != size or all(O.parse(x) == O.ZERO for x in witness):
        return "non-PSD state needs a non-zero witness over the basis"
    return None


def expected_exit(op) -> int:
    check = op["check"]
    return 1 if check[0] == "positivity" and not check[2] else 0


def check_cli(op, code, stdout: bytes, stderr: bytes):
    if code is None:
        return "timed out"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if code != expected_exit(op):
        return f"exit code {code}, expected {expected_exit(op)}"
    kind, *args = op["check"]
    try:
        payload = json.loads(stdout)
        if kind == "sequence":
            return _sequence(payload, *args)
        if kind == "word_moments":
            return _word_moments(payload, *args)
        if kind == "nc":
            return _nc(payload, *args)
        if kind == "moebius":
            return None if payload["moebius"] == args[0] else f"moebius {payload['moebius']}"
        if kind == "value":
            return None if O.parse(payload["value"]) == O.parse(args[0]) else (
                f"value {payload['value']}, expected {args[0]}")
        if kind == "freeness":
            return _freeness(payload, *args)
        if kind == "positivity":
            return _positivity(payload, *args)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    raise ValueError(f"unknown check {kind!r}")


def check_session_value(expected, got) -> bool:
    """One session query: a state value, or a list of cumulants."""
    try:
        if isinstance(expected, list):
            return isinstance(got, list) and [O.parse(v) for v in got] == [
                O.parse(v) for v in expected]
        return isinstance(got, str) and O.parse(got) == O.parse(expected)
    except ValueError:
        return False
