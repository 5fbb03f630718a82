"""Shape checks for JSON inputs.

A reader asks for each key with the JSON types it accepts; a missing key
or a value of another type raises one ShapeError that names the place,
the key and the type, instead of the KeyError or TypeError the reader
would hit further on.
"""

from __future__ import annotations

from typing import Any, Tuple, Type, Union

_MISSING = object()

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


class ShapeError(ValueError):
    """JSON input of the wrong shape: a missing key or a wrong type."""


def _name(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _is(value, types: Tuple[type, ...]) -> bool:
    # JSON true and false are not integers
    if isinstance(value, bool) and bool not in types:
        return False
    return isinstance(value, types)


def obj(data, where: str) -> dict:
    """data itself, which must be a JSON object."""
    if not isinstance(data, dict):
        raise ShapeError(f"{where}: expected an object, got {_name(data)}")
    return data


def get(data: dict, key: str, types: Union[Type, Tuple[Type, ...]],
        where: str, default: Any = _MISSING):
    """data[key], which must have one of the given types; default when
    the key is absent and a default is given."""
    if key not in data:
        if default is _MISSING:
            raise ShapeError(f"{where}: missing key {key!r}")
        return default
    value = data[key]
    types = types if isinstance(types, tuple) else (types,)
    if not _is(value, types):
        want = " or ".join(_JSON_NAMES[t] for t in types)
        raise ShapeError(f"{where}: {key!r} must be {want}, "
                         f"got {_name(value)}")
    return value


def ints(data: dict, key: str, where: str, default: Any = _MISSING) -> list:
    """data[key], which must be an array of integers (JSON true and false
    are not integers)."""
    return _array(data, key, int, where, default)


def strs(data: dict, key: str, where: str, default: Any = _MISSING) -> list:
    """data[key], which must be an array of strings."""
    return _array(data, key, str, where, default)


def _array(data: dict, key: str, entry: type, where: str, default) -> list:
    value = get(data, key, list, where, default)
    for x in value:
        if not _is(x, (entry,)):
            raise ShapeError(f"{where}: an entry of {key!r} must be "
                             f"{_JSON_NAMES[entry]}, got {_name(x)}")
    return value


def rows(data: dict, key: str, where: str) -> list:
    """data[key], which must be an array of arrays of strings and
    integers; a JSON number with a fraction or exponent is refused, since
    it would enter as an inexact binary float."""
    value = get(data, key, list, where)
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ShapeError(f"{where}: row {i} of {key!r} must be an "
                             f"array, got {_name(row)}")
        for x in row:
            if not _is(x, (str, int)):
                raise ShapeError(f"{where}: an entry of {key!r} must be "
                                 f"a string or an integer, got {_name(x)}")
    return value
