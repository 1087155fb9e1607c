"""The toolkit's one JSON Lines reader, strict field access, and the
writers' block size.

``json_lines`` streams a file and parses each line once. In its ``with``
block a ValueError from the reader or from the caller's checks on the
current record reads ``{path}: line N: ...``. A blank line (skipped in
manifests) is ``blank line``, broken or too deeply nested JSON ``malformed
JSON``. A ``UnicodeDecodeError`` passes through: the file decodes in bulk.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

# Rows per write of the line writers: each formats one block of rows from
# its columns, so a writer's temporaries do not grow with the file.
WRITE_BLOCK = 8192


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
