"""The toolkit's one JSON Lines reader, its one writer, and strict field access.

``json_lines`` streams a file and parses each line once. In its ``with``
block a ValueError from the reader or from the caller's checks on the
current record reads ``{path}: line N: ...``. A blank line (skipped in
manifests) is ``blank line``, broken or too deeply nested JSON ``malformed
JSON``. A ``UnicodeDecodeError`` passes through: the file decodes in bulk.
Every file the toolkit writes is opened by ``output``, and every block of
rows is formatted by ``write_rows``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import IO

import numpy as np

# Rows per write of ``write_rows``: one block of rows is formatted at a
# time, so a writer's temporaries do not grow with the file.
WRITE_BLOCK = 8192


@contextmanager
def output(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """``path`` for writing (UTF-8 with "\\n" line ends, or bytes), written as
    ``.{name}.partial`` beside it and ``os.replace``d onto it only when the
    block ends cleanly; on an exception the temp file is removed. No fsync:
    this guards against a killed process, not a power cut."""
    partial = Path(path).with_name(f".{Path(path).name}.partial")
    mode = {"mode": "wb"} if binary else {"mode": "w", "encoding": "utf-8", "newline": "\n"}
    try:
        with open(partial, **mode) as f:
            yield f
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_rows(f: IO, line: str, n: int, columns: Callable[[int, int], Sequence]) -> None:
    """Write rows 0..n-1 of ``line``, one ``%`` per WRITE_BLOCK rows: ``columns(lo, hi)``
    gives the fields of rows lo..hi-1 in ``line``'s order, a 1-D column one
    field per row and a 2-D column consecutive fields."""
    for lo in range(0, n, WRITE_BLOCK):
        hi = min(lo + WRITE_BLOCK, n)
        cols = [np.asarray(c, dtype=object).reshape(hi - lo, -1) for c in columns(lo, hi)]
        f.write((line * (hi - lo)) % tuple(np.concatenate(cols, axis=1).ravel().tolist()))


@contextmanager
def json_lines(path: str | Path, skip_blank: bool = False) -> Iterator[Iterator]:
    """An iterator of the parsed lines of ``path``; ValueErrors name the line."""
    lineno = 0

    def records(f) -> Iterator:
        nonlocal lineno
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                if skip_blank:
                    continue
                raise ValueError("blank line")
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as e:
                raise ValueError(f"malformed JSON: {e}") from None
            yield rec

    with open(path, "r", encoding="utf-8") as f:
        try:
            yield records(f)
        except UnicodeDecodeError:
            raise
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None


class _Missing:
    """Sentinel for an absent JSON field; reads "missing" in messages."""

    def __repr__(self) -> str:
        return "missing"


_REQUIRED = _Missing()
_JSON_TYPE_NAMES = {int: "integer", float: "float", str: "string", list: "array", dict: "object"}


def json_field(obj: dict, key: str, kind: type, default=_REQUIRED):
    """``obj[key]``, required to be exactly JSON type ``kind``.

    ``obj`` must be a JSON object. Nothing is coerced: a float, a bool or a
    numeric string is not an integer, an integer is not a float, and a
    number is not a string. An absent key gives ``default`` or, without
    one, a ValueError.
    """
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {obj!r}")
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"field {key!r} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value
