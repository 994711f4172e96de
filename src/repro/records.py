"""One JSON image per record: :func:`dump` writes it, :func:`load` reads
it back closed.

A record is a dataclass, and its fields are the only declaration of its
keys.  ``load`` reads the annotations (``bool``; ``int``, not a bool;
``float``, finite, an int read as a float; ``str``; ``Any``;
``Optional``; ``List``; ``Tuple``; ``Dict`` with ``str`` or decimal
``int`` keys; nested records) and
raises :class:`~repro.errors.RecordError` naming where (``where.key[i]``)
a value is not an object, a key is missing or unknown, or a type is
wrong.  A field made with :func:`omitted` is left out while it holds its
default.  A record may adjust its image in ``_json_out(self, data)`` and
undo that in the classmethod ``_json_in(cls, data, where)``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from typing import Any

from .errors import RecordError, ReproError

__all__ = ["dump", "load", "omitted"]


def omitted(**kwargs: Any) -> Any:
    """A field left out of the JSON while it holds its default."""
    return dataclasses.field(metadata={"omitted": True}, **kwargs)


def _omitted(field: dataclasses.Field) -> bool:
    return field.metadata.get("omitted", False)


def _default(field: dataclasses.Field) -> Any:
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def dump(obj: Any) -> Any:
    """The JSON image of *obj*: records become objects, tuples lists and
    dict keys strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        data = {
            f.name: dump(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not (_omitted(f) and getattr(obj, f.name) == _default(f))
        }
        return obj._json_out(data) if hasattr(obj, "_json_out") else data
    if isinstance(obj, dict):
        return {str(key): dump(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [dump(item) for item in obj]
    return obj


@functools.lru_cache(maxsize=None)
def _hints(cls: type) -> typing.Dict[str, Any]:
    return typing.get_type_hints(cls)


def load(cls: Any, data: Any, where: str) -> Any:
    """Build record *cls* (or any annotation ``load`` reads, such as a
    ``List`` of records) from its JSON image *data*; a ``ReproError``
    from the record's own checks comes out as a ``RecordError``."""
    if not dataclasses.is_dataclass(cls):
        return _read(cls, data, where)
    _expect(isinstance(data, dict), where, "an object", data)
    if hasattr(cls, "_json_in"):
        data = cls._json_in(data, where)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    missing = [
        name
        for name, field in fields.items()
        if name not in data and not _omitted(field)
    ]
    if missing:
        raise RecordError(f"{where}: missing keys {sorted(missing)}")
    unknown = sorted(set(data) - set(fields), key=str)
    if unknown:
        raise RecordError(f"{where}: unknown keys {unknown}")
    hints = _hints(cls)
    values = {k: _read(hints[k], v, f"{where}.{k}") for k, v in data.items()}
    try:
        return cls(**values)
    except ReproError as exc:
        raise RecordError(f"{where}: {exc}") from exc


def _expect(ok: bool, where: str, what: str, value: Any) -> None:
    if not ok:
        got = "null" if value is None else type(value).__name__
        raise RecordError(f"{where}: expected {what}, got {got}")


def _read(hint: Any, value: Any, where: str) -> Any:
    if dataclasses.is_dataclass(hint):
        return load(hint, value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is Any or (value is None and type(None) in args):
        return value
    if origin is typing.Union:  # an Optional holding a value
        return _read(args[0], value, where)
    if origin in (list, tuple):
        _expect(isinstance(value, (list, tuple)), where, "a list", value)
        fixed = origin is tuple and args[-1] is not Ellipsis
        if fixed and len(args) != len(value):
            raise RecordError(f"{where}: expected {len(args)} items")
        items = [
            _read(args[i] if fixed else args[0], item, f"{where}[{i}]")
            for i, item in enumerate(value)
        ]
        return items if origin is list else tuple(items)
    if origin is dict:
        _expect(isinstance(value, dict), where, "an object", value)
        return {
            _key(args[0], key, where): _read(args[1], v, f"{where}[{key}]")
            for key, v in value.items()
        }
    what = "a number" if hint is float else hint.__name__
    kinds = (int, float) if hint is float else hint
    bool_ok = hint is bool or not isinstance(value, bool)
    _expect(isinstance(value, kinds) and bool_ok, where, what, value)
    if isinstance(value, float) and not math.isfinite(value):
        raise RecordError(
            f"{where}: expected a number, got {json.dumps(value)}"
        )
    return float(value) if hint is float else value


def _key(kind: type, key: Any, where: str) -> Any:
    if isinstance(key, str):
        if kind is str:
            return key
        if key.lstrip("-").isdigit() and str(int(key)) == key:
            return int(key)
    raise RecordError(f"{where}: key {key!r} is not {kind.__name__}")
