"""The rule every config field meets: the JSON type of its annotation and the
bound in its metadata. Each config class calls ``check`` from
``__post_init__``, so a library caller and a config file meet one rule."""

import json
import numbers
import operator
import sys
import types
import typing
from dataclasses import MISSING, field, fields

_NAMES = {
    int: "a JSON integer",
    float: "a finite JSON number",
    str: "a JSON string",
    tuple[float, float]: "[lo, hi], two finite numbers",
    tuple[float, float | None]: "[lo, hi], two finite numbers (the upper one may be null)",
    tuple[float, float | None, int]: "[lo, hi, taps] with finite lo, hi or null, and integer taps",
}


def bound(default=MISSING, **limits):
    """A field whose value, unless None, meets its limits: ``ge`` alone, ``gt=0``
    alone, or ``gt`` or ``ge`` with ``lt`` or ``le``."""
    return field(default=default, metadata={"limits": limits})


def check(config):
    """Raise ValueError naming the first field of ``config`` whose value is not
    of its annotated type or lies outside its bound."""
    for f in fields(config):
        value, hint, limits = getattr(config, f.name), f.type, f.metadata.get("limits", {})
        if not _fits(value, hint):
            raise ValueError(f"{f.name} must be {_name(hint)}, got {_json(value)}")
        if value is not None and not all(getattr(operator, k)(value, x) for k, x in limits.items()):
            raise ValueError(f"{f.name} must be {_rule(limits)}, got {_json(value)}")


def _fits(value, hint):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return value in args
    if origin is types.UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:
        if args[1:] == (...,):
            args = args[:1] * len(value) if isinstance(value, tuple) else ()
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    if hint in (int, float):  # a float is finite, and an integer in float range counts
        kind = numbers.Integral if hint is int else numbers.Real
        typed = isinstance(value, kind) and not isinstance(value, bool)
        return typed and (hint is int or abs(value) <= sys.float_info.max)
    return isinstance(value, hint)


def _name(hint):
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Literal:
        return f"one of {_json(args)}"
    if typing.get_origin(hint) is types.UnionType:  # null is named by no type
        return " or ".join(_name(arg) for arg in args if arg is not type(None))
    if hint in _NAMES:
        return _NAMES[hint]
    return f"a list of {_name(args[0])}" if args else f"a {hint.__name__}"


def _rule(limits):
    if limits.keys() == {"ge"} or limits == {"gt": 0}:
        return f"at least {limits['ge']}" if "ge" in limits else "positive"
    lo = f"[{limits['ge']}" if "ge" in limits else f"({limits['gt']}"
    return f"in {lo}, " + (f"{limits['le']}]" if "le" in limits else f"{limits['lt']})")


def _json(value):
    return json.dumps(value, default=repr)
