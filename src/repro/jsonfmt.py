"""Canonical indented JSON, byte-identical to ``json.dumps(indent=N)``.

``json.dumps`` with an ``indent`` always takes the pure-Python encoder,
which dominates writing the numeric artifacts: signature vectors, stream
manifests, causal-blame reports.  :func:`dumps` walks dicts and nested
lists in Python exactly as that encoder does, but hands every *flat*
list -- one holding no dict, list or tuple -- to the C encoder, with an
item separator that already carries the newline and indentation of the
list's depth.  The result is the string ``json.dumps(obj, indent=indent,
sort_keys=sort_keys)`` returns (ASCII-escaped, ``NaN``/``Infinity``
allowed, the same ``TypeError`` for unserializable values), built in
bulk.  Documents must be acyclic.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Callable

__all__ = ["dumps"]

_CONTAINERS = (dict, list, tuple)
_INF = float("inf")


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _scalar(o: Any) -> str:
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    "is not JSON serializable")


def _key(k: Any) -> str:
    if isinstance(k, str):
        return _string(k)
    if isinstance(k, float):
        return _string(_float(k))
    if k is True or k is False or k is None or isinstance(k, int):
        return _string(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def dumps(obj: Any, *, indent: int, sort_keys: bool = False) -> str:
    """``json.dumps(obj, indent=indent, sort_keys=sort_keys)``, in bulk."""
    out: list[str] = []
    _emit(obj, "\n", " " * indent, sort_keys, out.append, {})
    return "".join(out)


def _emit(o: Any, nl: str, step: str, sort_keys: bool,
          write: Callable[[str], Any],
          flat: dict[str, Callable[[Any], str]]) -> None:
    """Write ``o`` whose closing bracket sits after ``nl`` (the newline
    plus its indentation); ``flat`` maps an item separator to the C-backed
    encoder of flat lists at that depth."""
    if isinstance(o, (list, tuple)):
        if not o:
            write("[]")
            return
        inner = nl + step
        if not any(issubclass(t, _CONTAINERS) for t in set(map(type, o))):
            encode = flat.get(inner)
            if encode is None:
                encode = flat[inner] = json.JSONEncoder(
                    separators=("," + inner, ": ")).encode
            write("[" + inner + encode(o)[1:-1] + nl + "]")
            return
        sep = "[" + inner
        for v in o:
            write(sep)
            _emit(v, inner, step, sort_keys, write, flat)
            sep = "," + inner
        write(nl + "]")
    elif isinstance(o, dict):
        if not o:
            write("{}")
            return
        inner = nl + step
        sep = "{" + inner
        for k, v in (sorted(o.items()) if sort_keys else o.items()):
            write(sep + _key(k) + ": ")
            if isinstance(v, _CONTAINERS):
                _emit(v, inner, step, sort_keys, write, flat)
            else:
                write(_scalar(v))
            sep = "," + inner
        write(nl + "}")
    else:
        write(_scalar(o))
