"""The toolkit's one reader and one writer of text files, and strict field access.

Every text file the toolkit reads is opened by ``text_input``, which numbers
its lines. Lines end at "\\n" only: a lone "\\r" is JSON whitespace inside
a line. In its ``with`` block a ValueError reads ``{path}: line N: ...``
while line N is the last line read, and ``{path}: ...`` otherwise (checks
of the whole file, readers that name their own lines). A
``UnicodeDecodeError`` passes through: the file decodes in bulk.
``json_lines`` parses each line once: a blank line (skipped in manifests)
is ``blank line``, broken or too deeply nested JSON ``malformed JSON``.
Every file the toolkit writes is opened by ``output``, and every block of
rows is formatted by ``write_rows``, its floats by ``float_reprs``.

Each writer emits one fixed line form: the keys in the writer's order, no
spaces, integers of at most 18 digits, floats with a fraction or an
exponent, strings without escapes. Such files are read in blocks of
WRITE_BLOCK lines, each checked by one regular expression and appended to
the loader's columns by a converter, with no ``json.loads``. In the files
only the toolkit writes, ``writer_lines`` refuses a line off the form. A
manifest comes from outside it: ``canonical_lines`` hands it, from its first
block off the form or refused, to ``json_lines``' per-line parse.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from contextlib import contextmanager
from itertools import chain, islice
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


def float_reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float64, as an object array of str, formatting each
    distinct value once. The table is keyed on the bit pattern, not the
    value, so -0.0 keeps its sign next to 0.0."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    table = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return table[inverse]


@contextmanager
def text_input(path: str | Path) -> Iterator[tuple[IO, Callable]]:
    """``path`` open for reading, and ``numbered(lines, row=0)``, which yields
    ``lines`` as lines row + 1 on; a ValueError in the block names the file
    and, while ``numbered`` runs, the last line read."""
    lineno = 0  # no line while ``numbered`` is not running

    def numbered(lines: Iterable[str], row: int = 0) -> Iterator[str]:
        nonlocal lineno
        for lineno, line in enumerate(lines, start=row + 1):
            yield line
        lineno = 0

    with open(path, "r", encoding="utf-8", newline="\n") as f:  # a lone "\r" ends no line
        try:
            yield f, numbered
        except UnicodeDecodeError:
            raise
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}" if lineno else f"{path}: {e}") from None


def _records(lines: Iterable[str], skip_blank: bool) -> Iterator:
    """The parsed JSON of each of ``lines``; a blank line is skipped or refused."""
    for line in lines:
        if not line.strip():
            if skip_blank:
                continue
            raise ValueError("blank line")
        try:
            yield json.loads(line)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ValueError(f"malformed JSON: {e}") from None


@contextmanager
def json_lines(path: str | Path, skip_blank: bool = False) -> Iterator[Iterator]:
    """An iterator of the parsed lines of ``path``, read by ``text_input``."""
    with text_input(path) as (f, numbered):
        yield _records(numbered(f), skip_blank)


# The tokens of a writer's canonical lines, as regular expressions: an
# integer as ``%d`` writes it, of at most 18 digits (so within int64), a
# JSON number with a fraction or an exponent (a float to ``json``,
# converted with ``float`` as ``json`` does), and the characters of a
# string without escapes, so that the raw text is the decoded value.
INT = r"(?:0|-?[1-9][0-9]{0,17})"
FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
TEXT = r'[^"\\\x00-\x1f]*'


def canonical(line: str) -> re.Pattern:
    """The block check of one writer's line form ``line`` (a regular expression
    ending in ``\\n``): it matches any run of whole lines. Each repeat takes
    one whole line, up to its "\\n", and nothing follows the repeat, so the
    possessive ``*+`` matches what a greedy one matches, without keeping a
    way back into each line."""
    return re.compile(f"(?:{line})*+")


def _blocks(f: IO, block: re.Pattern) -> Iterator[tuple[int, list[str], str, int]]:
    """Each block of WRITE_BLOCK lines of ``f``: the 0-based row of its first
    line, its lines, their text, and the end of ``block``'s match in it."""
    row = 0
    while lines := list(islice(f, WRITE_BLOCK)):
        text = "".join(lines)
        yield row, lines, text, block.match(text).end()
        row += len(lines)
        del lines, text  # the next block is read without this one alive


@contextmanager
def writer_lines(path: str | Path, block: re.Pattern, convert: Callable, writer: str) -> Iterator:
    """Read ``path``, which only ``writer`` writes, in the line form ``block`` (a
    ``canonical`` check): ``convert(text, row)`` appends each block up to its first
    line off the form, from 0-based row ``row`` on, or names its lowest faulty line;
    then that line is refused. The ``with`` block runs once every line is read."""
    with text_input(path) as (f, _):
        for row, lines, text, end in _blocks(f, block):
            if end:
                convert(text[:end], row)  # a lower line's fault comes first
            if end != len(text):
                line = row + text.count("\n", 0, end) + 1
                raise ValueError(f"line {line}: not a line {writer} writes")
            del lines, text
        yield


@contextmanager
def canonical_lines(path: str | Path, block: re.Pattern, convert: Callable) -> Iterator[Iterator]:
    """The parsed lines of ``path`` after its leading blocks in the line form
    ``block`` (a ``canonical`` check). ``convert(text, row)`` appends a block
    that matches to its end, from 0-based row ``row`` on, or refuses it whole
    with a ValueError. From the first block that does not match or is
    refused, the iterator yields the parsed lines as ``json_lines`` does with
    blank lines skipped, numbered from that block on, so the file is read once."""
    with text_input(path) as (f, numbered):
        row = 0
        for row, lines, text, end in _blocks(f, block):
            try:
                if end != len(text):
                    break
                convert(text, row)
            except ValueError:
                break
            del lines, text
        else:
            lines = []
        yield _records(numbered(chain(lines, f), row), True)  # from the block that broke off


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
    return json_value(key, obj[key], kind)


def json_value(key: str, value, kind: type):
    """``value`` of field ``key``, required to be exactly JSON type ``kind``,
    with ``json_field``'s rule and text: a bool or a numpy integer is not an
    integer."""
    if type(value) is not kind:
        raise ValueError(f"field {key!r} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def refuse_unknown(obj: dict, fields: Collection[str]) -> None:
    """Refuse a key of ``obj`` outside ``fields``, the keys its writer writes."""
    for key in obj:
        if key not in fields:
            raise ValueError(f"unknown field {key!r}")
