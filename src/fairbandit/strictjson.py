"""The rules every JSON document fairbandit reads is held to.

`json.loads` keeps the last of two identical keys in one object, so a
document that gives a key twice loads silently with its second value.
`loads` refuses it and names the key by its path from the top of the
document. `is_number` is what a JSON number is: an int or a float, never
true or false, which load as bool, a subclass of int.
"""
from __future__ import annotations

import json


class RepeatedKeyError(ValueError):
    """A JSON object gives one key twice; the message names the key by its path."""


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise RepeatedKeyError
    return doc


class _Pairs(list):
    """An object's (key, value) pairs, kept in document order."""


def _first_repeat(node, path: str) -> str | None:
    """The path of the first key repeated in `node`, depth first in document order."""
    if isinstance(node, _Pairs):
        seen = set()
        for key, value in node:
            at = f"{path}[{json.dumps(key)}]"
            if key in seen:
                return at
            seen.add(key)
            found = _first_repeat(value, at)
            if found:
                return found
    elif isinstance(node, list):
        for i, value in enumerate(node):
            found = _first_repeat(value, f"{path}[{i}]")
            if found:
                return found
    return None


def loads(text: str):
    """`json.loads(text)`, but raise RepeatedKeyError, naming the key by its
    path (`["conditions"][0]["epsilon"]`), when an object repeats a key."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RepeatedKeyError:
        # Parse again, keeping every pair, to name the repeated key.
        path = _first_repeat(json.loads(text, object_pairs_hook=_Pairs), "")
        raise RepeatedKeyError(f"repeated key {path}") from None
