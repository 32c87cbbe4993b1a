"""The one reader of the JSON blocks of configs and transcripts.

Each block states its fields once, in a table of (key, JSON type,
default) rows next to the code that uses it; read_block reads it, and
the block's writer takes its keys from the same table.  agree holds a
params or channel block to what the params built from it write back.
"""

from __future__ import annotations

import sys

from .errors import ConfigError

REQUIRED = object()  # the default of a field the block must hold

# the JSON type a field of each type takes; every list the tool reads must
# hold an item (its user checks that)
_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", dict: "an object", list: "a non-empty list"}


def config_field(block: dict, key: str, kind: type, where: str, default=REQUIRED):
    """block[key], checked to be a JSON value of the given type.

    A missing key returns default, or raises ConfigError when it is
    REQUIRED; so does a value of another type.  Where the default is
    None an explicit null counts as missing.  Integers count as numbers
    (and come back as floats), booleans count as neither, and a number
    must be finite: json.load reads NaN and Infinity, and 1e400 as inf.
    """
    if key not in block or (default is None and block[key] is None):
        if default is REQUIRED:
            raise ConfigError(f"{where} is missing {key!r}")
        return default
    value = block[key]
    # the type test passes what json.load makes; a subclass, or an int for
    # a number, also does, but not a bool, though Python counts it as an int
    accepted = (int, float) if kind is float else kind
    if type(value) is not kind and (isinstance(value, bool)
                                    or not isinstance(value, accepted)):
        raise ConfigError(f"{where}.{key} must be {_JSON_TYPES[kind]}, got {value!r}")
    if kind is not float:
        return value
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def read_block(block, where: str, fields) -> dict:
    """Each field of the JSON object `block` by key, read by config_field
    from the table `fields`, whose rows begin (key, JSON type, default).
    Raises ConfigError for a block that is not an object, a key the
    table does not list, and a missing, mistyped or non-finite value."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    unknown = block.keys() - {row[0] for row in fields}
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}; "
                          f"expected {[row[0] for row in fields]}")
    return {row[0]: config_field(block, row[0], row[1], where, row[2]) for row in fields}


def agree(values: dict, where: str, written: dict):
    """Each non-null field of a block read by read_block must equal the
    one the params give (written: ProtocolParams.to_config for a params
    block, where a key it leaves out reads as None, and the fields of the
    params' channel for a channel block); ConfigError otherwise."""
    for key, value in values.items():
        if value is not None and value != written.get(key):
            raise ConfigError(f"{where}.{key} = {value!r} conflicts with the "
                              f"params, which give {written.get(key)!r}")


def require(values: dict, where: str, keys) -> dict:
    """The given keys of a block read by read_block, by key, where a
    field read as None (absent, or null) counts as missing."""
    for key in keys:
        if values[key] is None:
            raise ConfigError(f"{where} is missing {key!r}")
    return {key: values[key] for key in keys}
