"""flowgen: compile natural-language ETL flow descriptions into workflow graphs."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, TypeVar

__version__ = "0.1.0"

_T = TypeVar("_T")


class InputError(ValueError):
    """A configuration, data or training file that flowgen cannot use."""


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


def read_json(path: str | Path, kind: type, what: str, keys: tuple[str, ...] = ()):
    """Parse a JSON input file and check its top-level shape.

    A ``list`` file is an array of ``what`` objects that each carry ``keys``;
    a ``dict`` file is one object, ``what``, that carries ``keys``. A blank
    file reads as an empty ``kind``. A bad shape raises :class:`InputError`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = parse_json(text) if text.strip() else kind()
    except ValueError as exc:  # not UTF-8, malformed, a huge integer or a lone surrogate
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
    if kind is list:
        if not isinstance(raw, list):
            raise InputError(f"{path}: expected a JSON array of {what}s")
        for i, item in enumerate(raw):
            if not has_keys(item, keys):
                raise InputError(f"{path}: {what} {i} needs {' and '.join(keys)}")
    elif not has_keys(raw, keys):
        raise InputError(f"{path}: expected {what}")
    return raw


def has_keys(item: object, keys: tuple[str, ...]) -> bool:
    """Whether ``item`` is a JSON object carrying every key of ``keys``."""
    return isinstance(item, dict) and all(k in item for k in keys)


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
