"""JSON value helpers.

Documents in this system are JSON values (section 3): ``None``, bools,
ints/floats, strings, lists, and string-keyed dicts.  This module
provides validation, canonical encoding, structural size accounting (for
the managed cache's memory quota), and deep copy / deep freeze helpers
used wherever a component must not alias client-owned structures.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InvalidArgumentError

JsonValue = None | bool | int | float | str | list | dict

#: Rough per-object overhead charged by the memory accountant, tuned to be
#: stable across Python versions rather than byte-exact.
_BASE_COST = 16


def is_json_value(value: Any) -> bool:
    """True if ``value`` is representable as JSON (recursively)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, list):
        return all(is_json_value(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and is_json_value(item)
            for key, item in value.items()
        )
    return False


def validate_json_value(value: Any) -> None:
    """Raise :class:`TypeError` if ``value`` is not a JSON value."""
    if not is_json_value(value):
        raise TypeError(f"not a JSON value: {value!r}")


def encode_canonical(value: JsonValue) -> bytes:
    """Deterministic byte encoding (sorted keys, no whitespace).

    Used by the storage engine and by XDCR checksums, where two encodings
    of the same logical document must be byte-identical.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def decode(data: bytes) -> JsonValue:
    """Inverse of :func:`encode_canonical`."""
    return json.loads(data.decode("utf-8"))


_CONTAINERS = (dict, list)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def deep_copy(value: JsonValue) -> JsonValue:
    """Copy a JSON value.  Faster than :func:`copy.deepcopy` because the
    shape is known, and it never shares mutable containers: each dict or
    list is copied shallowly (scalars are immutable and shared) and only
    a nested container is recursed into -- a container holding only
    scalars, the usual record, is one C-level type scan and one shallow
    copy.  A dict or list subclass comes back as the plain type."""
    if isinstance(value, dict):
        copied = dict(value)
        if not _SCALARS.issuperset(map(type, value.values())):
            for key, item in value.items():
                if isinstance(item, _CONTAINERS):
                    copied[key] = deep_copy(item)
        return copied
    if isinstance(value, list):
        if _SCALARS.issuperset(map(type, value)):
            return list(value)
        return [deep_copy(item) if isinstance(item, _CONTAINERS) else item
                for item in value]
    return value


def sizeof(value: JsonValue) -> int:
    """Approximate in-memory footprint in bytes.

    The managed cache (section 4.3.3) enforces a per-bucket memory quota
    and evicts values when it is exceeded; this accountant provides the
    charge for each cached document.  The numbers are deliberately simple
    and deterministic rather than CPython-exact.
    """
    if value is None or isinstance(value, bool):
        return _BASE_COST
    if isinstance(value, (int, float)):
        return _BASE_COST + 8
    if isinstance(value, str):
        return _BASE_COST + len(value.encode("utf-8"))
    if isinstance(value, list):
        return _BASE_COST + sum(sizeof(item) for item in value)
    if isinstance(value, dict):
        return _BASE_COST + sum(
            _BASE_COST + len(key.encode("utf-8")) + sizeof(item)
            for key, item in value.items()
        )
    raise TypeError(f"not a JSON value: {value!r}")


def get_path(value: JsonValue, path: str) -> tuple[bool, JsonValue]:
    """Resolve a dotted sub-document path like ``"billing.address.zip"``.

    Returns ``(found, value)``; ``found`` is False when any step is
    missing.  Array steps may be numeric (``"items.0.sku"``).  This backs
    the sub-document lookups the DML statements support (section 3.2.2).
    """
    current = value
    if path == "":
        return True, current
    for step in path.split("."):
        if isinstance(current, dict):
            if step not in current:
                return False, None
            current = current[step]
        elif isinstance(current, list):
            try:
                index = int(step)
            except ValueError:
                return False, None
            if not -len(current) <= index < len(current):
                return False, None
            current = current[index]
        else:
            return False, None
    return True, current


def set_path(value: JsonValue, path: str, new_value: JsonValue) -> None:
    """Set a dotted path inside ``value`` in place, creating intermediate
    objects as needed.  Raises :class:`TypeError` when a step traverses a
    non-container."""
    if not path:
        raise InvalidArgumentError("empty path")
    steps = path.split(".")
    current = value
    for step in steps[:-1]:
        if isinstance(current, dict):
            if step not in current or not isinstance(current[step], (dict, list)):
                current[step] = {}
            current = current[step]
        elif isinstance(current, list):
            current = current[int(step)]
        else:
            raise TypeError(f"cannot traverse {type(current).__name__} at {step!r}")
    last = steps[-1]
    if isinstance(current, dict):
        current[last] = new_value
    elif isinstance(current, list):
        current[int(last)] = new_value
    else:
        raise TypeError(f"cannot set field on {type(current).__name__}")


def unset_path(value: JsonValue, path: str) -> bool:
    """Remove a dotted path; returns True if something was removed."""
    if not path:
        raise InvalidArgumentError("empty path")
    steps = path.split(".")
    found, parent = get_path(value, ".".join(steps[:-1]))
    if not found:
        return False
    last = steps[-1]
    if isinstance(parent, dict) and last in parent:
        del parent[last]
        return True
    if isinstance(parent, list):
        try:
            index = int(last)
        except ValueError:
            return False
        if -len(parent) <= index < len(parent):
            del parent[index]
            return True
    return False
