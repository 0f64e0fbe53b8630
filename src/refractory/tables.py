"""The text formats of the pipeline's artifacts.

A table is UTF-8 with LF line endings: a header line, then one line per row,
cells separated by commas, and a trailing newline. Floats are written at 17
significant digits so they read back exactly; a missing value is an empty
cell. JSON is indented by two spaces. Readers raise ParseError with the line.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParseError

FLOAT_FORMAT = "%.17g"


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def write_json(path: str | Path, payload) -> None:
    write_text(path, json_text(payload))


def format_row(values: Iterable) -> str:
    """Floats at FLOAT_FORMAT, None as an empty cell, anything else through str."""
    return ",".join("" if v is None else FLOAT_FORMAT % v if isinstance(v, float) else str(v) for v in values)


def write_table(path: str | Path, header: str, lines: Iterable[str]) -> None:
    """Write a header and already formatted lines; the empty last item ends the file in a newline."""
    write_text(path, "\n".join([header, *lines, ""]))


def read_table(path: str | Path, header: str | None = None) -> tuple[list[str], list[str]]:
    """Read a patient table into its header cells and its body lines.

    The header must start with a patient_id column, and equal `header` when
    one is given. Every body line must have as many cells as the header.
    Body line i is line i + 2 of the file.
    """
    # Bytes decoded as they are: a text-mode read would turn a stray CR into
    # a line break, and a CRLF file must fail on its first row, not pass.
    lines = Path(path).read_bytes().decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    names = lines[0].split(",") if lines else []
    if names[:1] != ["patient_id"] or (header is not None and lines[0] != header):
        raise ParseError(1, f"expected header {header or 'patient_id,...'!r}")
    body = lines[1:]
    commas = list(map(str.count, body, repeat(",")))
    if commas.count(len(names) - 1) != len(commas):
        lineno, n = next((i, c) for i, c in enumerate(commas, start=2) if c != len(names) - 1)
        raise ParseError(lineno, f"expected {len(names)} fields, got {n + 1}")
    return names, body


def encode(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Dictionary-encode a column: its distinct values in order of first
    appearance, and each value's index among them."""
    names = list(dict.fromkeys(values))
    position = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(position.__getitem__, values), dtype=np.int64, count=len(values))


def first_invalid(names: list[str], index: np.ndarray, valid: Callable[[str], bool]) -> int | None:
    """The first row of an encoded column whose value fails `valid`, or None.

    Each distinct value is tested once. Distinct values come in order of
    first appearance, so the first failing one also fails first in the rows.
    """
    bad = next((i for i, name in enumerate(names) if not valid(name)), None)
    return None if bad is None else int(np.argmax(index == bad))


def check_unique_ids(ids: list[str]) -> None:
    """Reject a repeated patient id at its line; a join on ids would keep one row."""
    seen: set[str] = set()
    for lineno, pid in enumerate(ids, start=2):
        if pid in seen:
            raise ParseError(lineno, f"patient_id {pid!r} repeats an earlier row")
        seen.add(pid)
