"""flowgen: compile natural-language ETL flow descriptions into workflow graphs."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable, TypeVar

__version__ = "0.1.0"

_T = TypeVar("_T")


class InputError(ValueError):
    """A configuration, data or training file that flowgen cannot use; ``locus`` says where."""

    def __init__(self, message: str, locus: str = ""):
        super().__init__(f"{locus}: {message}" if locus else message)
        self.locus = locus


class Record:
    """A plain record, equal to a record of its own type whose ``__slots__`` fields are equal."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )


def fixture_path(*parts: str) -> Path:
    """Absolute path of a bundled fixture file."""
    return Path(__file__).parent.joinpath("fixtures", *parts)


# a surrogate's escape; a lone one decodes to a str that no UTF-8 output can carry
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str) -> object:
    """``json.loads``, which also raises ``ValueError`` for a string holding a lone surrogate.

    The exact check, a UTF-8 encode of the whole value, runs only when a scan
    of ``text`` finds a surrogate's escape, as a pair for an emoji also is.
    Arrays or objects nested past the interpreter's recursion limit raise
    ``ValueError`` too, where ``json.loads`` raises ``RecursionError``.
    """
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ValueError("arrays or objects nest too deeply") from None
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(raw, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            lone = exc.object[exc.start : exc.end]
            raise ValueError(f"a string holds the lone surrogate {lone!r}, which UTF-8 cannot carry")
    return raw


def read_json(path: str | Path, shape: Any) -> Any:
    """The JSON value of the file at ``path``, checked to have ``shape`` (see :func:`check`).

    A blank file reads as an empty array or object, as ``shape`` is one.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = parse_json(text) if text.strip() else type(shape)()
    except ValueError as exc:  # not UTF-8, malformed, a huge integer or a lone surrogate
        raise InputError(f"malformed JSON: {exc}", str(path)) from exc
    return check(raw, shape, str(path))


_NAMES = {str: "str", int: "integer", bool: "boolean", float: "float", list: "list", dict: "object"}


def check(value: Any, shape: Any, where: str = "") -> Any:
    """``value``, a parsed JSON value, if it has ``shape``; else raise ``InputError``.

    A shape is ``str``, ``int``, ``bool``, ``float``, ``list`` or ``dict``
    for a value of that JSON type (a bool is never an int); ``[item]`` for
    an array of ``item``s; ``{str: item}`` for an object of ``item``s;
    ``{"key": shape, "opt?": shape}`` for an object with those keys, where a
    missing key reads as null unless marked ``?``, and other keys are
    ignored; or a tuple of shapes, which picks the one for the value's JSON
    type, ``None`` among them admitting null.

    The error's locus is ``where``, the file or a locus in it, then the path
    down to the part that fails, as in ``<file>: stages[0].name``; it is
    built only on failure. The message reads ``expected str, got int``, or
    ``expected list`` or ``expected object`` for a container; an object
    shape's ``None`` key, if any, names it instead of ``object``.
    """
    miss = _misfit(value, shape)
    if miss is None:
        return value
    bad, expected, *parts = miss
    path = "".join(f"[{p}]" if type(p) is int else f".{p}" for p in reversed(parts)).removeprefix(".")
    named = [s for s in (expected if type(expected) is tuple else (expected,)) if s is not None]
    words = (
        s.get(None, "object") if type(s) is dict else "list" if type(s) is list else _NAMES[s] for s in named
    )
    message = "expected " + " or ".join(words)
    if any(type(s) is type and s not in (list, dict) for s in named):  # not a container
        message += f", got {type(bad).__name__}"
    raise InputError(message, ": ".join(filter(None, (where, path))))


def _misfit(value: Any, shape: Any) -> list | None:
    """None if ``value`` has ``shape``; else ``[part, its shape, *keys and indexes down to it]``.

    The part is the first that lacks its shape; the keys and indexes run innermost first.
    """
    if type(shape) is type:
        return None if type(value) is shape else [value, shape]
    if type(shape) is tuple:
        if type(value) in shape or value is None and None in shape:
            return None
        for choice in shape:
            if type(value) is type(choice):  # an array or object shape
                return _misfit(value, choice)
        return [value, shape]
    if type(value) is not type(shape):
        return [value, shape]
    if type(shape) is list or str in shape:  # every element or value has the one shape
        sub = shape[0] if type(shape) is list else shape[str]
        for key, item in enumerate(value) if type(value) is list else value.items():
            # a value of its JSON type, the common case, needs no call
            miss = None if type(item) is sub else _misfit(item, sub)
            if miss is not None:
                miss.append(key)
                return miss
        return None
    for key, sub in shape.items():
        if key is None:  # the object's name
            continue
        if key[-1] == "?":
            key = key[:-1]
            if key not in value:
                continue
        item = value.get(key)
        miss = None if type(item) is sub or type(sub) is tuple and type(item) in sub else _misfit(item, sub)
        if miss is not None:
            miss.append(key)
            return miss
    return None


def thread_pool(width: int):
    """A new ``concurrent.futures`` pool of ``width`` threads; they start as calls are submitted."""
    # local: concurrent.futures loads logging too, and serial runs never use it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=width)


def run_in_order(calls: list[Callable[[], _T]], pool) -> list[_T]:
    """Results of ``calls`` in list order, run on ``pool``, a ``concurrent.futures`` executor.

    Calls are submitted in list order. With no pool, they run one after
    another on the calling thread. A call must not wait on another call that
    it submits to the same pool: with every worker waiting, the pool
    deadlocks.
    """
    if pool is None:
        return [call() for call in calls]
    futures = [pool.submit(call) for call in calls]
    return [future.result() for future in futures]
